"""Complex polynomials, rational functions, and root finding.

Polynomials are dense ascending coefficient vectors (degrees here stay
below ~40).  Roots are companion-matrix eigenvalues refined by Newton
steps; residuals are always checked against an explicit bound so failures
are loud.

The modulus-product construction turns |B|^2 on a centred circle of radius
r into an explicit rational function of z, using the reflection
conj(z) = r^2 / z that holds on that circle.  Subtracting two such products
cross-multiplied gives a difference polynomial whose top coefficient
cancels exactly, which is what bounds the number of points where two
Blaschke products can share a modulus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, cancel_common
from .errors import AllOfCircle, NonConvergence

logger = logging.getLogger(__name__)

_TRIM_REL = 1e-14

#: roots closer than this to the first root of their cluster are merged
_CLUSTER_TOL = 1e-8

class Polynomial:
    """Dense complex polynomial, coefficients in ascending degree order.

    Trailing coefficients below 1e-14 * max|coeff| are trimmed on
    construction; the zero polynomial is stored as [0].  Non-finite
    coefficients, and finite ones whose modulus overflows, raise ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        if arr.size == 0:
            arr = np.zeros(1, dtype=complex)
        if not np.isfinite(arr).all():
            raise ValueError("polynomial coefficients must be finite")
        top = float(np.abs(arr).max())
        if top == np.inf:
            raise ValueError("a polynomial coefficient's modulus overflows a float")
        if top == 0.0:
            arr = np.zeros(1, dtype=complex)
        else:
            keep = np.nonzero(np.abs(arr) > _TRIM_REL * top)[0]
            arr = arr[: keep[-1] + 1]
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = np.polyval(self.coeffs[::-1], zz)
        return complex(out) if zz.ndim == 0 else out

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial(degree={self.degree})"

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """The monic polynomial with these roots (a multiset)."""
        c = np.array([1.0 + 0j])
        for r in roots:
            c = np.convolve(c, np.array([-complex(r), 1.0]))
        return cls(c)


class RationalFunction:
    """Quotient of two ``Polynomial``s; the denominator must not vanish identically."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ValueError("denominator is identically zero")
        self.num = num
        self.den = den

    def __call__(self, z):
        # denominator zeros yield inf (which Moebius compositions absorb);
        # 0/0 stays nan
        zz = np.asarray(z, dtype=complex)
        num = np.asarray(self.num(zz), dtype=complex)
        den = np.asarray(self.den(zz), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / den
        pole = den == 0
        if np.any(pole):
            out = np.where(pole & (num != 0), complex(np.inf, 0.0), out)
        return complex(out) if zz.ndim == 0 else out

    def zeros(self) -> list[complex]:
        return poly_roots(self.num)

    def poles(self) -> list[complex]:
        return poly_roots(self.den)

    @classmethod
    def from_zeros_poles(cls, zeros, poles) -> "RationalFunction":
        """Build prod(z - zero) / prod(z - pole), cancelling shared roots.

        Zero/pole pairs closer than 1e-10 cancel; cancellations are logged
        rather than silent.
        """
        zs = [complex(z) for z in zeros]
        kept_z, ps = cancel_common(zs, [complex(p) for p in poles], 1e-10)
        if len(kept_z) < len(zs):
            logger.info("cancelling %d zero/pole pair(s) within 1e-10", len(zs) - len(kept_z))
        return cls(Polynomial.from_roots(kept_z), Polynomial.from_roots(ps))


def _newton_polish(coeffs: np.ndarray, roots: np.ndarray, sweeps: int = 3) -> np.ndarray:
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))
    z = roots.copy()
    for _ in range(sweeps):
        p, dp = np.polyval(coeffs[::-1], z), np.polyval(dcoeffs[::-1], z)
        safe = np.abs(dp) > 1e-300
        z[safe] = z[safe] - p[safe] / dp[safe]
    return z


def _cluster_roots(roots: np.ndarray, tol: float) -> list[complex]:
    order = np.lexsort((roots.imag, roots.real))
    sorted_roots = roots[order]
    gaps = np.abs(sorted_roots[:, None] - sorted_roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    if not np.any(gaps <= tol):
        return sorted_roots.tolist()
    clusters: list[list[complex]] = []
    for r in sorted_roots:
        placed = False
        for cluster in clusters:
            if abs(r - cluster[0]) <= tol:
                cluster.append(complex(r))
                placed = True
                break
        if not placed:
            clusters.append([complex(r)])
    out: list[complex] = []
    for cluster in clusters:
        rep = complex(np.mean(cluster))
        out.extend([rep] * len(cluster))
    return out


def poly_roots(p: Polynomial) -> list[complex]:
    """All roots of ``p`` as a multiset of Python complex numbers (cluster
    representatives repeated).

    A nonzero constant has no roots and gives []; the zero polynomial, of
    which every point is a root, raises ValueError.  For every degree from
    1 up, the roots are the eigenvalues of the balanced companion matrix
    (``np.roots``; backward stable, Edelman & Murakami 1995), refined by
    three Newton sweeps.  Every root must then
    satisfy |p(root)| <= 1e-9 * max|coeff| * max(1, |root|)^deg, or
    NonConvergence is raised.  Roots within 1e-8 of the first root of their
    cluster (in real-then-imaginary order) are replaced by the cluster mean.
    """
    if p.is_zero:
        raise ValueError("every point is a root of the zero polynomial")
    if p.degree == 0:
        return []
    coeffs = p.coeffs
    # np.roots returns a real array when every root is a stripped zero (c z)
    roots = _newton_polish(coeffs, np.roots(coeffs[::-1]).astype(complex))
    vals = np.abs(np.polyval(coeffs[::-1], roots))
    bound = 1e-9 * float(np.abs(coeffs).max()) * np.maximum(1.0, np.abs(roots)) ** p.degree
    if not np.all(vals <= bound):
        raise NonConvergence(f"root residuals too large: max |p(root)| = {vals.max():.3e}")
    return _cluster_roots(roots, _CLUSTER_TOL)


def build_modulus_product(b: BlaschkeProduct, r: float) -> RationalFunction:
    """Rational function equal to |b(z)|^2 on the centred circle of radius ``r``.

    Each zero a contributes the factor
    (z - a)(r^2 - conj(a) z) / ((1 - conj(a) z)(z - r^2 a)),
    obtained from conj(z) = r^2 / z on the circle; the unimodular constant
    of ``b`` drops out.  On the circle the value is real and nonnegative.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r!r}")
    num = np.array([1.0 + 0j])
    den = np.array([1.0 + 0j])
    r2 = r * r
    for a in b.zeros:
        ac = a.conjugate()
        num = np.convolve(num, np.array([-a, 1.0]))
        num = np.convolve(num, np.array([r2, -ac]))
        den = np.convolve(den, np.array([1.0, -ac]))
        den = np.convolve(den, np.array([-r2 * a, 1.0]))
    return RationalFunction(Polynomial(num), Polynomial(den))


@dataclass(frozen=True)
class ModulusEquation:
    """Difference polynomial for |b1| = |b2| on a centred circle.

    ``poly`` is P1 Q2 - P2 Q1 with its top coefficient (which cancels
    analytically) removed; ``scale`` is the coefficient scale of the
    cross products, against which "identically zero" is decided.
    """

    poly: Polynomial
    scale: float
    max_coeff: float

    @property
    def is_identically_zero(self) -> bool:
        return self.max_coeff <= 1e-10 * self.scale


def modulus_equation(b1: BlaschkeProduct, b2: BlaschkeProduct, r: float) -> ModulusEquation:
    """Cross-multiplied difference of the two modulus products on r*T.

    The degree is at most 2*deg(b1) + 2*deg(b2) - 1: the top coefficients
    of the cross products coincide and cancel.  The residual of that
    cancellation is verified against 1e-10 relative and the coefficient is
    then removed exactly.
    """
    r1 = build_modulus_product(b1, r)
    r2 = build_modulus_product(b2, r)
    lhs = np.convolve(r1.num.coeffs, r2.den.coeffs)
    rhs = np.convolve(r2.num.coeffs, r1.den.coeffs)
    full_len = 2 * b1.degree + 2 * b2.degree + 1
    lhs_full = np.zeros(full_len, dtype=complex)
    rhs_full = np.zeros(full_len, dtype=complex)
    lhs_full[: len(lhs)] = lhs
    rhs_full[: len(rhs)] = rhs
    scale = max(float(np.abs(lhs_full).max()), float(np.abs(rhs_full).max()), 1e-300)
    diff = lhs_full - rhs_full
    top = abs(diff[-1])
    if top > 1e-10 * scale:
        raise RuntimeError(
            f"top coefficient failed to cancel: |c_top| = {top:.3e} vs scale {scale:.3e}"
        )
    trimmed = diff[:-1]
    max_coeff = float(np.abs(trimmed).max()) if len(trimmed) else 0.0
    return ModulusEquation(poly=Polynomial(trimmed), scale=scale, max_coeff=max_coeff)


def equality_points_on_circle(b1: BlaschkeProduct, b2: BlaschkeProduct, r: float) -> list[complex]:
    """Points of the centred radius-``r`` circle where |b1| = |b2|.

    These are the difference-polynomial roots within 1e-8 of the
    circle.  Raises AllOfCircle when the polynomial is identically zero,
    i.e. the moduli agree everywhere on the circle.
    """
    eq = modulus_equation(b1, b2, r)
    if eq.is_identically_zero:
        raise AllOfCircle("the moduli agree on the whole circle")
    roots = poly_roots(eq.poly)
    return [w for w in roots if abs(abs(w) - r) <= 1e-8]
