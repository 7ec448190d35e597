"""Zero-free analytic functions reconstructed from boundary modulus data.

Given samples m_k = |f(w_k)| at the nodes w_k = e^{2 pi i k / n} of the
unit circle, the associated outer function is

    u(z) = exp( (1/2 pi) integral (e^{it} + z) / (e^{it} - z) log m(t) dt ),

discretized by the uniform trapezoid rule, which is spectrally accurate for
smooth periodic log-modulus.  u has no zeros in the disc, u(0) > 0, and
|u| has boundary values m.  Evaluation is trusted only up to |z| = 0.99:
the kernel amplifies the quadrature error like 1/(1 - |z|).

Expanding the kernel in powers of z / w_k sums the rule as one periodic
power series: with c = FFT(log m) / n,

    log u(z) = c_0 + 2 sum_{j >= 1} c_{j mod n} z^j,

the same quadrature with no n x m kernel matrix (Henrici, "Fast Fourier
methods in computational complex analysis", SIAM Review 1979).  At points
of modulus <= rho only the terms j <= J are summed, J the smallest index
with rho^(J + 1) <= 2^-53 (1 - rho): the dropped tail is below the rounding
already in every c_j.  J is 774 at rho = 0.95 and 4113 at rho = 0.99,
whatever n.  The kept terms are summed in one of two ways, chosen from the
points:

* a uniform circle grid z_k = z_0 e^{2 pi i k / m} in that order (m >= 2,
  z_0 != 0): fold c_{j mod n} z_0^j by j mod m and take one inverse FFT
  of length m;
* any other points: in blocks of B = isqrt(J + 1) + 1 coefficients
  (Paterson-Stockmeyer): one m x B power matrix times the
  B x ceil((J + 1) / B) coefficient matrix, then Horner steps in z^B, so
  memory is O(m sqrt(J)).

u(0) = exp(c_0) is real, since c_0 is the mean of log m.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .blaschke import ModulusData, modulus_samples, read_csv, write_csv
from .errors import EvaluationTooCloseToBoundary, ZeroOnBoundary
from .geometry import UNIT_CIRCLE, _is_centred_grid

_MIN_GRID = 16

#: largest |z| at which the outer function is evaluated
_RHO_MAX = 0.99


class BoundaryModulus(ModulusData):
    """Moduli at the points e^{i t_k} of the uniform grid t_k = 2 pi k / n.

    At least 16 finite non-negative values (else ValueError), each above
    1e-10 times the largest (else ZeroOnBoundary): zeros on the circle must
    be divided out before the modulus fixes an outer factor.  Every route
    to an outer factor builds one of these, so every route applies the rule.
    """

    __slots__ = ()

    def __init__(self, values):
        moduli = np.asarray(values, dtype=float).ravel()
        if len(moduli) < _MIN_GRID:
            raise ValueError(f"grid size must be >= {_MIN_GRID}, got {len(moduli)}")
        if not np.all(np.isfinite(moduli)) or np.any(moduli < 0.0):
            raise ValueError("modulus values must be positive and finite")
        if float(moduli.min()) <= 1e-10 * float(moduli.max()):
            raise ZeroOnBoundary(
                f"boundary moduli reach {float(moduli.min()):.3e}; zeros on the unit "
                "circle must be divided out first"
            )
        # the grid is built here, so ModulusData's on-circle and distinctness
        # checks could not fail and are not run
        self.circle = UNIT_CIRCLE
        self.points = UNIT_CIRCLE.sample_points(len(moduli))
        self.moduli = moduli

    @property
    def n(self) -> int:
        return len(self.moduli)

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    def to_csv(self, path) -> None:
        write_csv(path, "t,modulus", (self.angles, self.moduli))

    @classmethod
    def from_csv(cls, path) -> "BoundaryModulus":
        t, ms = read_csv(path, "t,modulus")
        boundary = cls(ms)
        # 2e-13 per node keeps every spacing within 1e-12 of 2 pi / n
        if not float(np.abs(t - boundary.angles).max()) <= 2e-13:
            raise ValueError("grid is not uniform: t must equal 2 pi k / n within 2e-13")
        return boundary


class OuterFunction:
    """Outer function with the given boundary modulus; callable on |z| <= 0.99."""

    __slots__ = ("boundary", "_c0", "_coeffs")

    def __init__(self, boundary: BoundaryModulus):
        self.boundary = boundary
        n = boundary.n
        c = np.fft.fft(np.log(boundary.moduli)) / n
        self._c0 = float(c[0].real)
        top = _series_length(_RHO_MAX)
        self._coeffs = 2.0 * np.resize(c[: top + 1], top + 1)  # 2 c_{j mod n}, j = 0..J
        self._coeffs[0] = 0.0  # c_0 is added apart

    def __call__(self, z):
        """Evaluate the Schwarz-integral exponential at scalar or array z."""
        zz = np.asarray(z, dtype=complex)
        rho = float(np.fmax.reduce(np.abs(zz), axis=None, initial=0.0))  # NaN points aside
        if rho > _RHO_MAX:
            raise EvaluationTooCloseToBoundary(f"|z| = {rho!r} exceeds rho_max = {_RHO_MAX!r}")
        coeffs = self._coeffs[: _series_length(rho) + 1]
        if _is_centred_grid(zz):
            series = _on_grid(complex(zz[0]), len(zz), coeffs)
        else:
            series = _blocked(zz.ravel(), coeffs)
        out = np.exp(self._c0 + series).reshape(zz.shape)
        return complex(out) if zz.ndim == 0 else out


def _on_grid(z0: complex, m: int, coeffs: np.ndarray) -> np.ndarray:
    """The series at z_k = z0 e^{2 pi i k / m}: one inverse FFT of length m."""
    j = np.arange(len(coeffs))
    folded = np.zeros(-(-len(coeffs) // m) * m, dtype=complex)
    folded[: len(coeffs)] = coeffs * abs(z0) ** j * np.exp(1j * cmath.phase(z0) * j)
    return np.fft.ifft(folded.reshape(-1, m).sum(axis=0), norm="forward")


def _blocked(flat: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The series at any points: Paterson-Stockmeyer blocks of the coefficients."""
    size = math.isqrt(len(coeffs)) + 1  # B >= 2, so a NaN point meets z^1
    blocks = np.zeros(-(-len(coeffs) // size) * size, dtype=complex)
    blocks[: len(coeffs)] = coeffs
    blocks = blocks.reshape(-1, size).T  # column q: j = q B .. q B + B - 1
    powers = np.vander(flat, size, increasing=True)
    z_size = powers[:, -1] * flat
    partial = powers @ blocks
    series = partial[:, -1]
    for q in range(blocks.shape[1] - 2, -1, -1):
        series = series * z_size + partial[:, q]
    return series


def _series_length(rho: float) -> int:
    """The last term J of the series kept at points of modulus <= rho < 1.

    J is the smallest index with rho^(J + 1) <= 2^-53 (1 - rho), so the
    dropped terms sum to at most 2^-53 max|coef|, below the rounding of the
    FFT coefficients themselves.
    """
    if rho == 0.0:
        return 0
    return math.ceil(math.log(2.0**-53 * (1.0 - rho)) / math.log(rho)) - 1


def boundary_modulus_of(func, n: int) -> BoundaryModulus:
    """Sample |func| on the uniform n-point boundary grid.

    A pole on the circle raises EvaluationAtPole; the grid is then checked
    by BoundaryModulus, so n < 16 raises ValueError and a modulus <= 1e-10
    ZeroOnBoundary.
    """
    return BoundaryModulus(modulus_samples(func, UNIT_CIRCLE.sample_points(n)).moduli)
