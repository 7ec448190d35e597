"""Moebius maps, circles and lines, and the two-circle configuration classifier.

Everything here is exact rational/"compass" geometry in double precision:
Moebius maps are stored as normalized coefficient quadruples, circles map to
circles or lines via the symmetric-point construction (no least-squares
fitting), and the five-way classification of two circles inside the disc is
decided with a relative tolerance so that tangency survives conformal
transport.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import CircleNotInsideDisc, IdenticalCircles

#: largest denominator q for which classify_angle reports theta = p pi / q
_MAX_DENOMINATOR = 64

#: largest distance, relative to |z_0|, of a point from the circle grid it is taken for
_GRID_TOL = 1e-14


def _check_count(name: str, value) -> None:
    # a count sizes an array: nan, 2.5, inf and -3 count nothing
    try:
        ok = operator.index(value) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class MoebiusMap:
    """The fractional linear map z -> (a z + b) / (c z + d).

    Coefficients are normalized on construction so the largest one has
    modulus 1 (the map itself is unchanged); a map with a non-finite
    coefficient is rejected, and so is one whose determinant vanishes
    relative to max(|a|, |b|) * max(|c|, |d|), the scale of its two terms.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        coeffs = np.array(
            [complex(self.a), complex(self.b), complex(self.c), complex(self.d)]
        )
        for name, value in zip("abcd", coeffs):
            if not cmath.isfinite(value):
                raise ValueError(f"Moebius coefficient {name} = {value} is not finite")
        scale = np.abs(coeffs).max()
        if not math.isfinite(scale):
            raise ValueError("a Moebius coefficient's modulus overflows a float")
        if scale == 0.0:
            raise ValueError("all Moebius coefficients are zero")
        coeffs = coeffs / scale
        det = coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]
        # relative to the rows, so a dilation z -> 1e15 z is not degenerate
        rows = max(abs(coeffs[0]), abs(coeffs[1])) * max(abs(coeffs[2]), abs(coeffs[3]))
        if abs(det) <= 1e-14 * rows:
            raise ValueError(f"Moebius map is degenerate (|det| = {abs(det):.3e})")
        for name, value in zip("abcd", coeffs):
            object.__setattr__(self, name, complex(value))

    def __call__(self, z):
        """Apply the map on the Riemann sphere, to a scalar or numpy array.

        A point with |c z + d| <= 1e-15 (|c| |z| + |d|) is the pole and maps
        to complex(inf, 0); an infinite point maps to a/c, or to infinity
        when the map is affine (see :meth:`pole`).
        """
        zz = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            den = self.c * zz + self.d
            out = (self.a * zz + self.b) / den
            at_pole = np.abs(den) <= 1e-15 * (abs(self.c) * np.abs(zz) + abs(self.d))
        out = np.where(at_pole, complex(np.inf, 0.0), out)
        at_infinity = np.isinf(zz)
        if np.any(at_infinity):
            out[at_infinity] = complex(np.inf, 0.0) if self.pole() is None else self.a / self.c
        return complex(out) if zz.ndim == 0 else out

    def pole(self) -> complex | None:
        """Preimage of infinity, or None for an affine map."""
        if abs(self.c) <= 1e-15 * max(abs(self.a), abs(self.d)):
            return None
        return -self.d / self.c


def disc_automorphism(omega: complex, alpha: complex) -> MoebiusMap:
    """The disc automorphism z -> omega * (alpha - z) / (1 - conj(alpha) z).

    ``omega`` must be unimodular and ``alpha`` interior; the map sends
    ``alpha`` to 0 and preserves the unit circle.
    """
    omega = complex(omega)
    alpha = complex(alpha)
    if not abs(abs(omega) - 1.0) <= 1e-12:
        raise ValueError(f"omega must be unimodular, |omega| = {abs(omega)!r}")
    if not abs(alpha) < 1.0:
        raise ValueError(f"alpha must lie in the open disc, |alpha| = {abs(alpha)!r}")
    return MoebiusMap(a=-omega, b=omega * alpha, c=-alpha.conjugate(), d=1.0)


@dataclass(frozen=True)
class Circle:
    """Circle in the plane with finite complex ``center`` and finite positive ``radius``."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError(f"center and radius must be finite, got {self.center}, {self.radius}")

    @property
    def inside_unit_disc(self) -> bool:
        return abs(self.center) + self.radius < 1.0

    def point(self, theta: float) -> complex:
        return self.center + self.radius * complex(math.cos(theta), math.sin(theta))

    def sample_points(self, n: int, phase_offset: float = 0.0) -> np.ndarray:
        """``n`` equally spaced points, the first at angle ``phase_offset``."""
        _check_count("n", n)
        if not math.isfinite(phase_offset):
            raise ValueError(f"phase_offset must be finite, got {phase_offset!r}")
        if phase_offset == 0.0:
            return self.center + self.radius * _roots_of_unity(n)
        t = phase_offset + 2.0 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * t)

    def to_json(self) -> dict:
        return {"cx": self.center.real, "cy": self.center.imag, "r": self.radius}


UNIT_CIRCLE = Circle(0.0, 1.0)


@lru_cache(maxsize=8)
def _roots_of_unity(n: int) -> np.ndarray:
    """e^{2 pi i k / n}, k = 0..n-1, computed once per n; the array is read-only."""
    roots = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    roots.flags.writeable = False
    return roots


def _is_centred_grid(zz: np.ndarray) -> bool:
    """Whether the 1-D points are zz[0] e^{2 pi i k / m}, k = 0..m-1, in that
    order (m >= 2, zz[0] != 0).

    Points within 1e-14 |zz[0]| of the grid count as on it: computing with
    the exact grid then moves a result by round-off only.  A NaN point is off it.
    """
    if zz.ndim != 1 or len(zz) < 2 or zz[0] == 0:
        return False
    return bool(np.abs(zz - zz[0] * _roots_of_unity(len(zz))).max() <= _GRID_TOL * abs(zz[0]))


@dataclass(frozen=True)
class Line:
    """Line through ``point`` with unit ``direction`` (normalized on input)."""

    point: complex
    direction: complex

    def __post_init__(self):
        object.__setattr__(self, "point", complex(self.point))
        d = complex(self.direction)
        mod = abs(d)
        if mod == 0.0:
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "direction", d / mod)

    def distance_to(self, z: complex) -> float:
        return abs(((complex(z) - self.point) / self.direction).imag)


GeneralizedCircle = Union[Circle, Line]


class PairKind(str, Enum):
    INTERNALLY_DISJOINT = "internally_disjoint"
    EXTERNALLY_DISJOINT = "externally_disjoint"
    INTERNALLY_TANGENT = "internally_tangent"
    EXTERNALLY_TANGENT = "externally_tangent"
    INTERSECTING = "intersecting"


@dataclass(frozen=True)
class CircleConfig:
    """Configuration of two circles; ``angle`` is set only when intersecting."""

    kind: PairKind
    angle: float | None = None


@dataclass(frozen=True)
class RationalMultipleOfPi:
    p: int
    q: int
    residual: float


@dataclass(frozen=True)
class PresumedIrrational:
    best_q: int
    best_residual: float


AngleClass = Union[RationalMultipleOfPi, PresumedIrrational]


def _verify_image(m: MoebiusMap, source: Circle, image, n: int = 16) -> None:
    # post-condition self-check: mapped sample points satisfy the image equation
    pts = source.sample_points(n, phase_offset=0.37)
    pole = m.pole()
    if pole is not None:
        keep = np.abs(pts - pole) > 1e-9 * (1.0 + abs(pole))
        pts = pts[keep]
    w = m(pts)
    if isinstance(image, Circle):
        err = np.abs(np.abs(w - image.center) - image.radius)
        tol = 1e-10 * (image.radius + np.abs(w - image.center))
    else:
        err = np.abs(((w - image.point) / image.direction).imag)
        tol = 1e-10 * (1.0 + np.abs(w - image.point))
    if np.any(err > tol):
        raise RuntimeError(
            "mapped sample points deviate from the computed image "
            f"(worst error {float(err.max()):.3e})"
        )


def map_circle(m: MoebiusMap, c: Circle) -> GeneralizedCircle:
    """Image of a circle under a Moebius map: a Line when the circle passes
    through the map's pole, else a Circle.

    Image circles are computed exactly via the symmetric point of the pole
    (the symmetric point of the map's pole w.r.t. the source maps to the
    image centre), which avoids three-point circumcentre cancellation.
    """
    pole = m.pole()
    if pole is None:
        # affine map: w = (a z + b) / d
        image: GeneralizedCircle = Circle(m(c.center), abs(m.a / m.d) * c.radius)
    elif abs(abs(pole - c.center) - c.radius) <= 1e-13 * (c.radius + abs(pole - c.center)):
        # the circle passes through the pole: its image is a straight line
        t0 = math.atan2((pole - c.center).imag, (pole - c.center).real)
        p1 = m(c.point(t0 + 2.0 * math.pi / 3.0))
        p2 = m(c.point(t0 - 2.0 * math.pi / 3.0))
        image = Line(point=p1, direction=p2 - p1)
    else:
        if abs(pole - c.center) == 0.0:
            center = m.a / m.c  # the symmetric point is infinity, and m(inf) = a/c
        else:
            center = m(c.center + c.radius**2 / (pole - c.center).conjugate())
        image = Circle(center, abs(m(c.point(0.0)) - center))
    _verify_image(m, c, image)
    return image


def circle_as_automorphism_image(c: Circle) -> tuple[complex, complex, float]:
    """Represent a circle inside the disc as automorphism image of r*T.

    Returns ``(omega, alpha, r)`` with ``omega = 1`` such that the disc
    automorphism built from them maps the centred circle of radius ``r``
    onto ``c``.  ``alpha`` is chosen on the diameter through 0 and the
    centre of ``c`` (the hyperbolic midpoint of the diameter endpoints).
    """
    if not c.inside_unit_disc:
        raise CircleNotInsideDisc(
            f"|center| + radius = {abs(c.center) + c.radius!r} >= 1"
        )
    if abs(c.center) <= 1e-15:
        return (1.0 + 0j, 0j, c.radius)
    unit = c.center / abs(c.center)
    u = abs(c.center) - c.radius
    v = abs(c.center) + c.radius
    disc = (1.0 + u * v) ** 2 - (u + v) ** 2
    # root with |t| < 1 of (u+v) t^2 - 2 (1+uv) t + (u+v) = 0, stable form
    t = (u + v) / ((1.0 + u * v) + math.sqrt(disc))
    alpha = t * unit
    r = (v - t) / (1.0 - t * v)

    phi = disc_automorphism(1.0, alpha)
    mapped = phi(Circle(0.0, r).sample_points(64))
    err = np.abs(np.abs(mapped - c.center) - c.radius)
    if err.max() > 1e-10:
        raise RuntimeError(
            f"automorphism image verification failed (worst error {err.max():.3e})"
        )
    return (1.0 + 0j, alpha, r)


def classify_pair(c1: Circle, c2: Circle) -> CircleConfig:
    """Classify the configuration of two distinct circles.

    Tangency is decided with the relative tolerance 1e-12 * (r1 + r2);
    intersecting pairs carry the intersection angle folded into (0, pi/2].
    """
    tol = 1e-12 * (c1.radius + c2.radius)
    d = abs(c1.center - c2.center)
    r_sum = c1.radius + c2.radius
    r_diff = abs(c1.radius - c2.radius)
    if d <= tol and r_diff <= tol:
        raise IdenticalCircles("the two circles coincide within tolerance")
    if d > r_sum + tol:
        return CircleConfig(PairKind.EXTERNALLY_DISJOINT)
    if abs(d - r_sum) <= tol:
        return CircleConfig(PairKind.EXTERNALLY_TANGENT)
    if abs(d - r_diff) <= tol:
        return CircleConfig(PairKind.INTERNALLY_TANGENT)
    if d < r_diff - tol:
        return CircleConfig(PairKind.INTERNALLY_DISJOINT)
    cos_theta = abs(c1.radius**2 + c2.radius**2 - d * d) / (
        2.0 * c1.radius * c2.radius
    )
    return CircleConfig(PairKind.INTERSECTING, angle=math.acos(min(1.0, cos_theta)))


def classify_angle(theta: float) -> AngleClass:
    """Decide numerically whether theta is a rational multiple of pi.

    Takes the closest fraction p/q to theta/pi with q <= 64 and accepts it
    if it lies within 1e-9; otherwise reports its denominator and residual
    as the evidence for presumed irrationality.  A fraction within
    1e-9 < 1/(2 q^2) is a continued-fraction convergent, so the verdict is
    that of the convergents.
    """
    if not 0.0 < theta <= math.pi + 1e-15:
        raise ValueError(f"theta must lie in (0, pi], got {theta!r}")
    x = theta / math.pi
    best = Fraction(x).limit_denominator(_MAX_DENOMINATOR)
    best_err = abs(x - best.numerator / best.denominator)
    if best_err <= 1e-9 and best.numerator > 0:
        return RationalMultipleOfPi(p=best.numerator, q=best.denominator, residual=best_err)
    return PresumedIrrational(best_q=best.denominator, best_residual=best_err)


def inverse_point(z: complex, c: Circle) -> complex:
    """Inversion of ``z`` in the circle ``c``.

    Satisfies (z - center) * conj(result - center) = radius^2; points on
    the circle are fixed and the centre maps to complex(inf, 0), the
    infinity every pole of a function expression returns.
    """
    z = complex(z)
    offset = z - c.center
    if offset == 0:
        return complex(math.inf, 0.0)
    return c.center + c.radius**2 / offset.conjugate()
