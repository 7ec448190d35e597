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
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import CircleNotInsideDisc, IdenticalCircles

#: marker returned by :func:`inverse_point` for the centre of inversion
POINT_AT_INFINITY = complex(math.inf, math.inf)

#: largest denominator q for which classify_angle reports theta = p pi / q
_MAX_DENOMINATOR = 64


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

    def to_json(self) -> dict:
        return {
            "a": [self.a.real, self.a.imag],
            "b": [self.b.real, self.b.imag],
            "c": [self.c.real, self.c.imag],
            "d": [self.d.real, self.d.imag],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MoebiusMap":
        return cls(*(complex(obj[k][0], obj[k][1]) for k in "abcd"))


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
        if not math.isfinite(phase_offset):
            raise ValueError(f"phase_offset must be finite, got {phase_offset!r}")
        t = phase_offset + 2.0 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * t)

    def to_json(self) -> dict:
        return {"cx": self.center.real, "cy": self.center.imag, "r": self.radius}


UNIT_CIRCLE = Circle(0.0, 1.0)


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

    def sample_points(self, n: int, half_width: float) -> np.ndarray:
        t = np.linspace(-half_width, half_width, n)
        return self.point + t * self.direction


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


def _map_through_pole(m: MoebiusMap, on_object, pole: complex) -> Line:
    # object passes through the pole: its image is a straight line
    if isinstance(on_object, Circle):
        t0 = math.atan2((pole - on_object.center).imag, (pole - on_object.center).real)
        p1 = m(on_object.point(t0 + 2.0 * math.pi / 3.0))
        p2 = m(on_object.point(t0 - 2.0 * math.pi / 3.0))
    else:
        s = ((pole - on_object.point) / on_object.direction).real
        scale = 1.0 + abs(s)
        p1 = m(on_object.point + (s + scale) * on_object.direction)
        p2 = m(on_object.point + (s - scale) * on_object.direction)
    return Line(point=p1, direction=p2 - p1)


def _verify_image(m: MoebiusMap, source, image, n: int = 16) -> None:
    # post-condition self-check: mapped sample points satisfy the image equation
    if isinstance(source, Circle):
        pts = source.sample_points(n, phase_offset=0.37)
    else:
        pts = source.sample_points(n, half_width=1.0 + abs(source.point))
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


def map_circle(m: MoebiusMap, gc: GeneralizedCircle) -> GeneralizedCircle:
    """Image of a circle or line under a Moebius map.

    Circles and lines map to circles or lines; which one is decided by
    whether the source passes through the map's pole.  Image circles are
    computed exactly via the symmetric point of the pole (the symmetric
    point of the map's pole w.r.t. the source maps to the image centre),
    which avoids three-point circumcentre cancellation.
    """
    pole = m.pole()
    if pole is None:
        # affine map: w = (a z + b) / d
        ratio = m.a / m.d
        if isinstance(gc, Circle):
            image: GeneralizedCircle = Circle(m(gc.center), abs(ratio) * gc.radius)
        else:
            image = Line(m(gc.point), ratio * gc.direction)
        _verify_image(m, gc, image)
        return image

    if isinstance(gc, Circle):
        dist = abs(abs(pole - gc.center) - gc.radius)
        through_pole = dist <= 1e-13 * (gc.radius + abs(pole - gc.center))
    else:
        through_pole = gc.distance_to(pole) <= 1e-13 * (1.0 + abs(pole - gc.point))

    if through_pole:
        image = _map_through_pole(m, gc, pole)
        _verify_image(m, gc, image)
        return image

    if isinstance(gc, Circle):
        if abs(pole - gc.center) == 0.0:
            sym = None  # symmetric point is infinity; centre image is m(inf) = a/c
        else:
            sym = gc.center + gc.radius**2 / (pole - gc.center).conjugate()
        center = m.a / m.c if sym is None else m(sym)
        radius = abs(m(gc.point(0.0)) - center)
        image = Circle(center, radius)
    else:
        # reflect the pole across the line; the reflection maps to the centre
        sym = gc.point + gc.direction**2 * (pole - gc.point).conjugate()
        center = m(sym)
        radius = abs(m(gc.point) - center)
        image = Circle(center, radius)
    _verify_image(m, gc, image)
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
    mapped = phi(r * np.exp(2j * np.pi * np.arange(64) / 64))
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

    Expands theta/pi in a continued fraction and accepts the best
    convergent with denominator <= 64 if it lies within 1e-9; otherwise
    reports that convergent's denominator and residual as the evidence for
    presumed irrationality.
    """
    if not 0.0 < theta <= math.pi + 1e-15:
        raise ValueError(f"theta must lie in (0, pi], got {theta!r}")
    x = theta / math.pi
    # walk the convergents of the continued fraction of x; their errors
    # decrease strictly, so the last one with denominator <= 64 is the best
    h_prev, best_p = 1, int(x)
    k_prev, best_q = 0, 1
    frac = x - int(x)
    for _ in range(64):
        if frac < 1e-15:
            break
        a = int(1.0 / frac)
        frac = 1.0 / frac - a
        if a * best_q + k_prev > _MAX_DENOMINATOR:
            break
        best_p, h_prev = a * best_p + h_prev, best_p
        best_q, k_prev = a * best_q + k_prev, best_q
    best_err = abs(x - best_p / best_q)
    if best_err <= 1e-9 and best_p > 0:
        return RationalMultipleOfPi(p=best_p, q=best_q, residual=best_err)
    return PresumedIrrational(best_q=best_q, best_residual=best_err)


def inverse_point(z: complex, c: Circle) -> complex:
    """Inversion of ``z`` in the circle ``c``.

    Satisfies (z - center) * conj(result - center) = radius^2; points on
    the circle are fixed and the centre maps to POINT_AT_INFINITY.
    """
    z = complex(z)
    offset = z - c.center
    if offset == 0:
        return POINT_AT_INFINITY
    return c.center + c.radius**2 / offset.conjugate()
