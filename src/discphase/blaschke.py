"""Finite Blaschke products and modulus sampling on point grids.

A finite Blaschke product is a unimodular constant times factors
(z - a) / (1 - conj(a) z) with |a| < 1: the rational functions that are
unimodular on the unit circle.  This module evaluates them, samples moduli
on point arrays, holds modulus samples, and tests equality up to a
unimodular constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAlignment, EvaluationAtPole
from .geometry import Circle

#: zeros are rejected closer to the unit circle than this; the boundary
#: unimodularity guarantees degrade as zeros approach it
_ZERO_MODULUS_CAP = 1.0 - 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    """Unimodular ``constant`` times the Blaschke factors of ``zeros``.

    ``zeros`` is a multiset (repetitions allowed); the degree is its size.
    """

    constant: complex
    zeros: tuple[complex, ...]

    def __post_init__(self):
        c = complex(self.constant)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise ValueError(f"constant must be unimodular, |c| = {abs(c)!r}")
        zs = tuple(complex(a) for a in self.zeros)
        for a in zs:
            if not np.isfinite(a):
                raise ValueError(f"zero {a} is not finite")
            if abs(a) > _ZERO_MODULUS_CAP:
                raise ValueError(
                    f"zero {a} too close to the unit circle (|a| = {abs(a)!r})"
                )
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        """Evaluate at a scalar or array of points.

        Points within 1e-14 of a reflected pole 1/conj(a) evaluate to
        complex(inf, 0).
        """
        zz = np.asarray(z, dtype=complex)
        out = np.full(zz.shape, self.constant, dtype=complex)
        at_pole = np.zeros(zz.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for a in self.zeros:
                if a != 0:
                    at_pole |= np.abs(zz - 1.0 / a.conjugate()) <= 1e-14
                out *= zz - a
                out /= 1.0 - a.conjugate() * zz
        out[at_pole] = complex(np.inf, 0.0)
        return complex(out) if zz.ndim == 0 else out

    def with_constant(self, constant: complex) -> "BlaschkeProduct":
        return BlaschkeProduct(constant, self.zeros)


#: explicit points closer than this to an earlier kept point are dropped
_DEDUP_TOL = 1e-12

#: offsets of the 3 x 3 block of cells around a cell, as complex steps
_BLOCK = tuple(complex(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def dedup_indices(points) -> np.ndarray:
    """Indices of the points a greedy first-come pass keeps, in input order.

    A point is kept iff no earlier kept point lies within 1e-12 of it.
    After exact copies go (a later copy is never kept), points are binned
    into cells of side 2e-12; a point alone in its 3 x 3 block of cells is
    kept outright and only crowded points run the greedy order.  Close
    points agree exactly in any coordinate past 2**13, so the coarse cells
    of huge coordinates (beyond 2**53 cells, or infinite) cannot part them.
    Non-finite points raise ValueError.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    bad = np.flatnonzero(~np.isfinite(pts))
    if len(bad):
        raise ValueError(f"point index {int(bad[0])} is not finite: {complex(pts[bad[0]])}")
    idx = np.sort(np.unique(pts, return_index=True)[1])
    with np.errstate(over="ignore"):  # huge coordinates share one infinite cell
        cells = np.floor(pts[idx].real / (2 * _DEDUP_TOL)).astype(complex)
        cells.imag = np.floor(pts[idx].imag / (2 * _DEDUP_TOL))
    order = np.argsort(cells)
    occupied = cells[order]
    # lexicographic order: each column of the block is one contiguous run
    crowd = sum(
        np.searchsorted(occupied, occupied + complex(dx, 1), "right")
        - np.searchsorted(occupied, occupied + complex(dx, -1))
        for dx in (-1, 0, 1)
    )
    keep = np.empty(len(idx), dtype=bool)
    keep[order] = crowd == 1
    kept_in: dict[complex, list[complex]] = {}
    for k in np.flatnonzero(~keep):
        c, p = complex(cells[k]), complex(pts[idx[k]])
        if all(abs(p - q) > _DEDUP_TOL for d in _BLOCK for q in kept_in.get(c + d, ())):
            keep[k] = True
            kept_in.setdefault(c, []).append(p)
    return idx[keep]


@dataclass(frozen=True)
class ExplicitPoints:
    """An explicit point list, deduplicated at distance 1e-12."""

    raw: tuple[complex, ...]
    deduplicated: tuple[complex, ...] = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.raw, dtype=complex).ravel()
        object.__setattr__(self, "raw", tuple(pts.tolist()))
        object.__setattr__(self, "deduplicated", tuple(pts[dedup_indices(pts)].tolist()))
        if not self.deduplicated:
            raise ValueError("point set is empty")

    def points(self) -> np.ndarray:
        return np.array(self.deduplicated)


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under ``header``, each value in ``repr`` form."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def read_csv(path, header: str) -> np.ndarray:
    """The float columns of a CSV file written under ``header``, one array each.

    Line 1 must equal ``header``; blank lines are skipped; every other line
    has the header's field count and float fields.  Errors name the line.
    """
    n_fields = header.count(",") + 1
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        got = fh.readline().strip()
        if got != header:
            raise ValueError(f"line 1: expected header {header!r}, got {got!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ValueError(f"line {lineno}: expected {n_fields} fields, got {len(parts)}")
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return np.array(values, dtype=float).reshape(-1, n_fields).T


def complex_points(re, im) -> np.ndarray:
    """Points with exactly these parts (``re + 1j * im`` gives ``1j * inf`` a NaN real part)."""
    points = np.array(re, dtype=complex)
    points.imag = im
    return points


class ModulusSamples:
    """(point, modulus) pairs in grid order: at least one, all finite, moduli >= 0."""

    __slots__ = ("points", "moduli")

    def __init__(self, points, moduli):
        self.points = np.asarray(points, dtype=complex).ravel()
        self.moduli = np.asarray(moduli, dtype=float).ravel()
        if self.points.shape != self.moduli.shape:
            raise ValueError("points and moduli must have equal length")
        if len(self.points) == 0:
            raise ValueError("empty sample set")
        if not np.all(np.isfinite(self.points) & np.isfinite(self.moduli) & (self.moduli >= 0)):
            raise ValueError("points and moduli must be finite, moduli non-negative")

    def __len__(self) -> int:
        return len(self.points)

    def to_csv(self, path) -> None:
        columns = (range(len(self)), self.points.real, self.points.imag, self.moduli)
        write_csv(path, "index,re,im,modulus", columns)

    @classmethod
    def from_csv(cls, path) -> "ModulusSamples":
        """The samples of an ``index,re,im,modulus`` file: a plain ModulusSamples,
        bound to no circle, whichever class this is called on."""
        _, re, im, moduli = read_csv(path, "index,re,im,modulus")
        return ModulusSamples(complex_points(re, im), moduli)


class ModulusData(ModulusSamples):
    """Samples taken on ``circle``: each point on it within 1e-10, no two within 1e-12."""

    __slots__ = ("circle",)

    def __init__(self, circle: Circle, points, moduli):
        super().__init__(points, moduli)
        self.circle = circle
        off = np.abs(np.abs(self.points - circle.center) - circle.radius)
        if float(off.max()) > 1e-10:
            raise ValueError(
                f"sample points deviate from the circle by up to {float(off.max()):.3e}"
            )
        angles = np.sort(np.angle(self.points - circle.center))
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)  # the last gap wraps around
        if float(gaps.min()) * circle.radius <= 1e-12:
            raise ValueError("sample points are not pairwise distinct at 1e-12")


def modulus_samples(func, points) -> ModulusSamples:
    """Sample |func| at an array of points.

    Function expressions return infinity at their poles; a non-finite
    modulus raises EvaluationAtPole naming the first such point's index.
    This is the one place that raises EvaluationAtPole.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    moduli = np.abs(np.asarray(func(pts), dtype=complex))
    bad = np.flatnonzero(~np.isfinite(moduli))
    if len(bad):
        k = int(bad[0])
        raise EvaluationAtPole(f"evaluation is not finite at point index {k} ({complex(pts[k])})")
    return ModulusSamples(pts, moduli)


def align_constant(fvals, gvals) -> complex:
    """Unimodular c minimizing sum |f_k - c g_k|^2.

    The minimizer is s/|s| with s = sum conj(g_k) f_k.
    """
    f = np.asarray(fvals, dtype=complex).ravel()
    g = np.asarray(gvals, dtype=complex).ravel()
    if f.shape != g.shape or len(f) < 1:
        raise ValueError("sample vectors must be nonempty and of equal length")
    s = np.sum(g.conjugate() * f)
    norms = float(np.linalg.norm(f) * np.linalg.norm(g))
    if abs(s) <= 1e-14 * max(norms, 1e-300):
        raise DegenerateAlignment("sample correlation vanishes; no alignment exists")
    return complex(s / abs(s))


def cancel_common(first, second, tol: float) -> tuple[list, list]:
    """Both lists less their matched pairs: in order, each item of ``first``
    cancels the first remaining item of ``second`` within ``tol``."""
    kept: list = []
    pool = list(second)
    for z in first:
        hit = next((j for j, w in enumerate(pool) if abs(z - w) <= tol), None)
        if hit is None:
            kept.append(z)
        else:
            pool.pop(hit)
    return kept, pool


def equal_up_to_unimodular(b1: BlaschkeProduct, b2: BlaschkeProduct) -> complex | None:
    """Return lambda with b1 = lambda * b2 if zero multisets match, else None.

    Zeros are matched first-come at distance 1e-9 (``cancel_common``); good
    for the well-separated zero sets that arise here, approximate for
    clustered ones.
    """
    unmatched, rest = cancel_common(b1.zeros, b2.zeros, 1e-9)
    if unmatched or rest:
        return None
    return b1.constant / b2.constant
