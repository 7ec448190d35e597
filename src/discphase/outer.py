"""Zero-free analytic functions reconstructed from boundary modulus data.

Given samples m_k = |f(e^{i t_k})| on a uniform grid of the unit circle,
the associated outer function is

    u(z) = exp( (1/2 pi) integral (e^{it} + z) / (e^{it} - z) log m(t) dt ),

discretized by the uniform trapezoid rule, which is spectrally accurate for
smooth periodic log-modulus.  u has no zeros in the disc, u(0) > 0, and
|u| has boundary values m.  Evaluation is trusted only up to |z| = 0.99:
the kernel amplifies the quadrature error like 1/(1 - |z|).
"""

from __future__ import annotations

import numpy as np

from .blaschke import ModulusData, modulus_samples, read_csv, write_csv
from .errors import EvaluationTooCloseToBoundary, ZeroOnBoundary
from .geometry import UNIT_CIRCLE

_MIN_GRID = 16

#: largest |z| at which the outer function is evaluated
_RHO_MAX = 0.99


class BoundaryModulus(ModulusData):
    """Moduli at the points e^{i t_k} of the uniform grid t_k = 2 pi k / n.

    At least 16 finite non-negative values (else ValueError), each above
    1e-10 (else ZeroOnBoundary): zeros on the circle must be divided out
    before the modulus fixes an outer factor.  Every route to an outer
    factor builds one of these, so every route applies the rule.
    """

    __slots__ = ("_log",)

    def __init__(self, values):
        moduli = np.asarray(values, dtype=float).ravel()
        if len(moduli) < _MIN_GRID:
            raise ValueError(f"grid size must be >= {_MIN_GRID}, got {len(moduli)}")
        if not np.all(np.isfinite(moduli)) or np.any(moduli < 0.0):
            raise ValueError("modulus values must be positive and finite")
        if float(moduli.min()) <= 1e-10:
            raise ZeroOnBoundary(
                f"boundary moduli reach {float(moduli.min()):.3e}; zeros on the unit "
                "circle must be divided out first"
            )
        # the grid is built here, so ModulusData's on-circle and distinctness
        # checks could not fail and are not run
        self.circle = UNIT_CIRCLE
        self.points = UNIT_CIRCLE.sample_points(len(moduli))
        self.moduli = moduli
        self._log = np.log(moduli)

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

    __slots__ = ("boundary",)

    def __init__(self, boundary: BoundaryModulus):
        self.boundary = boundary

    def __call__(self, z):
        """Evaluate the Schwarz-integral exponential at scalar or array z."""
        zz = np.asarray(z, dtype=complex)
        if np.any(np.abs(zz) > _RHO_MAX):
            worst = float(np.abs(zz).max())
            raise EvaluationTooCloseToBoundary(f"|z| = {worst!r} exceeds rho_max = {_RHO_MAX!r}")
        flat = zz.ravel()
        nodes = self.boundary.points[None, :]
        kernel = (nodes + flat[:, None]) / (nodes - flat[:, None])
        exponent = kernel @ self.boundary._log / self.boundary.n
        out = np.exp(exponent).reshape(zz.shape)
        return complex(out) if zz.ndim == 0 else out


def boundary_modulus_of(func, n: int) -> BoundaryModulus:
    """Sample |func| on the uniform n-point boundary grid.

    A pole on the circle raises EvaluationAtPole; the grid is then checked
    by BoundaryModulus, so n < 16 raises ValueError and a modulus <= 1e-10
    ZeroOnBoundary.
    """
    return BoundaryModulus(modulus_samples(func, UNIT_CIRCLE.sample_points(n)).moduli)
