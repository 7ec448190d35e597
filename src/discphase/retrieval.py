"""Modulus-only reconstruction on two concentric circles, and certificates.

The pipeline recovers f = B * u (finite Blaschke product times outer
factor) from |f| sampled on the unit circle and on an interior centred
circle of radius r:

1. the unit-circle data determines the outer factor u (the Blaschke part
   is unimodular there);
2. dividing the interior-circle moduli by |u| leaves samples of |B| on
   that circle;
3. |B|^2 on the circle extends to a rational function H of numerator and
   denominator degree <= 2N (reflection conj(z) = r^2/z), which is fitted
   as a homogeneous least-squares problem in w = z / r, where the sample
   points lie on the unit circle (one objective on every input, reduced by
   one FFT of the moduli when the points form a uniform grid, and by a QR
   of the design otherwise); the poles of H, r times the roots of the
   fitted denominator, split into a cluster at r^2 * zeros (modulus < r^2)
   and reflected poles (modulus > 1), so the zeros of B can be read off;
4. the global phase is unrecoverable: results are normalized to Blaschke
   constant 1 and outer positive at 0.

The finite-point certificate counts modulus agreements of two Blaschke
products on a circle against the degree bound 2M + 2N - 1 and
cross-checks that the difference polynomial vanishes.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blaschke import (
    BlaschkeProduct,
    ModulusData,
    align_constant,
    cancel_common,
    dedup_indices,
    modulus_samples,
)
from .counterexamples import function_expr_to_json
from .errors import (
    DegreeCapExceeded,
    DiscPhaseError,
    ModulusMismatchOnCircle,
    NonConvergence,
    PointsNotOnCommonCircle,
    PoleAmbiguity,
    ResidualTooLarge,
    ZeroOnCircle,
)
from .geometry import Circle, _unit_grid_of
from .outer import BoundaryModulus, OuterFunction
from .rational import Polynomial, RationalFunction, modulus_equation, poly_roots

#: half-width of the pole separation dead band around [r, 1]
_POLE_BAND = 0.02

#: a fit with sigma[-2] / sigma[0] below this is flagged rank deficient; the
#: flag is read only by the benchmark tracer (fit.rank_deficient_count), since
#: exact data of the true degree crosses this threshold too
_RANK_RATIO = 1e-8


def _check_tolerance(name: str, value: float) -> None:
    # a NaN tolerance makes every "residual > tol" test false and so passes
    # every check; an infinite one does the same for finite residuals
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_degree(name: str, value) -> None:
    # a degree counts zeros and sizes the design: nan, 2.5 and inf are no degree
    try:
        ok = operator.index(value) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class RetrievalConfig:
    degree_max: int = 8
    residual_tol: float = 1e-7

    def __post_init__(self):
        _check_degree("degree_max", self.degree_max)
        _check_tolerance("residual_tol", self.residual_tol)


def sample_modulus(func, circle: Circle, n: int) -> ModulusData:
    """Forward measurement model: |func| on an n-point grid of the circle.

    A pole on the grid raises EvaluationAtPole.
    """
    samples = modulus_samples(func, circle.sample_points(n))
    return ModulusData(circle, samples.points, samples.moduli)


@contextmanager
def _stage(name: str):
    try:
        yield
    except DiscPhaseError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


@dataclass
class ModulusFit:
    """Rational fit num / den of squared moduli on a circle, in w = z / r; den is monic."""

    num: Polynomial
    den: Polynomial
    residual: float
    rank_deficient: bool


def fit_modulus_rational(data: ModulusData, degree: int) -> ModulusFit:
    """Fit P/Q with deg P, deg Q <= 2*degree to m^2 on the data circle.

    Minimizes sum |P(w_k) - m_k^2 Q(w_k)|^2 over unit-norm coefficient
    vectors via the smallest singular direction of the design matrix
    [W, -D W], W[k, j] = w_k^j and D = diag(m^2).  The fit is performed in
    the scaled variable w = z / r so the monomial columns stay on the unit
    circle (well conditioned for every r).  Before the SVD the design is
    reduced to a 2K x 2K matrix (K = 2*degree + 1) with the same right
    singular vectors and, up to a factor sqrt(m), the same singular values,
    by one of two routes:

    * points on a uniform grid w_k = w_0 e^{2 pi i k / m} in that order: the
      unitary DFT maps the design to sqrt(m) [[I, -C_top], [0, -C_bot]]
      diag(Phi, Phi), with c = FFT(m^2) / m, C[l, j] = c[(l - j) mod m] and
      Phi = diag(w_0^j); C_top is its first K rows, and C_bot, the Toeplitz
      rest, is reduced by a QR of (m - K) x K, with no powers of w built;
    * any other points: a QR of the m x 2K design.
    """
    _check_degree("degree", degree)
    r = data.circle.radius
    if abs(data.circle.center) > 1e-12:
        raise ValueError("modulus fit requires a circle centred at 0")
    n_samples = len(data)
    n_coeff = 2 * degree + 1
    if n_samples < 2 * n_coeff:
        raise ValueError(
            f"need at least {2 * n_coeff} samples for degree {degree}, got {n_samples}"
        )
    m2 = data.moduli**2
    j = np.arange(n_coeff)
    if _unit_grid_of(data.points) is None:
        powers = (data.points / r)[:, None] ** j[None, :]
        design = np.hstack([powers, -m2[:, None] * powers])
        _, s, vh = np.linalg.svd(np.linalg.qr(design, mode="r"))
        s = s / np.sqrt(n_samples)
    else:
        c = np.fft.fft(m2) / n_samples
        top = c[(j[:, None] - j[None, :]) % n_samples]
        bottom = np.linalg.qr(sliding_window_view(c[1:], n_coeff)[:, ::-1], mode="r")
        block = np.block([[np.eye(n_coeff), -top], [np.zeros_like(top), -bottom]])
        _, s, vh = np.linalg.svd(block * np.tile((data.points[0] / r) ** j, 2))
    # s holds the singular values of the design divided by sqrt(m)
    x = vh[-1].conjugate()
    den = Polynomial(x[n_coeff:])
    if den.is_zero:
        raise ResidualTooLarge("fit produced an identically zero denominator")
    lead = den.coeffs[-1]
    return ModulusFit(
        num=Polynomial(x[:n_coeff] / lead),
        den=Polynomial(den.coeffs / lead),
        residual=float(s[-1]),
        rank_deficient=float(s[-2]) < _RANK_RATIO * float(s[0]),
    )


def _recover(data: ModulusData, degree: int, residual_tol: float) -> tuple[BlaschkeProduct, float]:
    fit = fit_modulus_rational(data, degree)
    r = data.circle.radius
    poles = r * np.array(poly_roots(fit.den), dtype=complex)
    mods = np.abs(poles)
    in_band = (mods >= r - _POLE_BAND) & (mods <= 1.0 + _POLE_BAND)
    if np.any(in_band):
        raise PoleAmbiguity(
            f"fitted pole at modulus {float(mods[in_band][0]):.6f} lies in the "
            f"separation band [{r - _POLE_BAND:.3f}, {1.0 + _POLE_BAND:.3f}]"
        )
    selected = poles[mods < r]
    zeros = selected / r**2
    if np.any(np.abs(zeros) > 1.0 - 1e-12):
        raise PoleAmbiguity(
            "fitted pole between r^2 and r is inconsistent with the "
            "reflected-pole structure of an inner rational function"
        )
    b = BlaschkeProduct(1.0, tuple(zeros))
    forward = np.abs(b(data.points))
    residual = float(np.abs(forward - data.moduli).max())
    if residual > residual_tol:
        raise ResidualTooLarge(
            f"forward modulus residual {residual:.3e} exceeds {residual_tol:.3e} "
            f"at degree {degree}"
        )
    return b, residual


def _search_degree(data: ModulusData, config: RetrievalConfig) -> tuple[BlaschkeProduct, float]:
    # floored at 0 so that too few samples fail in degree 0's fit, not with
    # an empty failure list
    cap = max(0, min(config.degree_max, (len(data) - 2) // 4))
    failures: list[str] = []
    for degree in range(cap + 1):
        try:
            return _recover(data, degree, config.residual_tol)
        except (ResidualTooLarge, PoleAmbiguity, NonConvergence) as exc:
            failures.append(f"degree {degree}: {exc}")
        except np.linalg.LinAlgError as exc:
            failures.append(f"degree {degree}: SVD failed ({exc})")
    raise DegreeCapExceeded(
        f"no degree <= {cap} is consistent with the data at tolerance "
        f"{config.residual_tol:.1e}; " + "; ".join(failures[-2:])
    )


@dataclass
class RetrievalDiagnostics:
    """Diagnostic record attached to a retrieval result.

    forward_residual: max ||B| - m / |u|| on the inner samples, in |B| units.
    """

    forward_residual: float
    inner_radius: float
    n_samples_T: int
    n_samples_rT: int
    degree_max: int
    residual_tol: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RetrievalResult:
    """Reconstruction B * u, canonical up to a unimodular constant."""

    blaschke: BlaschkeProduct
    outer: OuterFunction
    residual_T: float
    residual_rT: float
    diagnostics: RetrievalDiagnostics

    @property
    def degree_used(self) -> int:
        """The number of recovered zeros."""
        return self.blaschke.degree

    def __call__(self, z):
        return self.blaschke(z) * self.outer(z)

    def to_json(self, outer_csv: str | None) -> dict:
        if outer_csv is not None:
            outer_ref: dict = {"n": self.outer.boundary.n, "csv": outer_csv}
        else:
            outer_ref = {
                "n": self.outer.boundary.n,
                "csv": None,
                "values": [float(v) for v in self.outer.boundary.moduli],
            }
        return {
            "blaschke": function_expr_to_json(self.blaschke),
            "outer_boundary": outer_ref,
            "residual_T": self.residual_T,
            "residual_rT": self.residual_rT,
            "degree": self.degree_used,
            "diagnostics": self.diagnostics.to_json(),
        }


def _boundary_from_data(data: ModulusData) -> BoundaryModulus:
    if isinstance(data, BoundaryModulus):
        return data
    circle = data.circle
    if abs(circle.center) > 1e-12 or abs(circle.radius - 1.0) > 1e-12:
        raise ValueError("boundary data must be sampled on the unit circle")
    n = len(data)
    nearest = np.rint(np.angle(data.points) * n / (2.0 * np.pi)).astype(int) % n
    order = np.argsort(nearest)
    boundary = BoundaryModulus(data.moduli[order])
    if float(np.abs(data.points[order] - boundary.points).max()) > 1e-9:
        raise ValueError(
            "boundary samples must form the uniform grid t_k = 2 pi k / n "
            "starting at t = 0"
        )
    return boundary


def retrieve_two_circles(
    data_boundary: ModulusData,
    data_inner: ModulusData,
    config: RetrievalConfig | None = None,
) -> RetrievalResult:
    """Reconstruct B * u from moduli on the unit circle and a centred interior one.

    The unit-circle data is a BoundaryModulus, or any ModulusData that
    forms the uniform grid t_k = 2 pi k / n in some order.

    Stage errors are tagged with the stage name: boundary -> outer_division
    -> degree_search -> assemble.
    """
    config = config or RetrievalConfig()

    with _stage("boundary"):
        boundary = _boundary_from_data(data_boundary)
        outer = OuterFunction(boundary)

    with _stage("outer_division"):
        circle_r = data_inner.circle
        if abs(circle_r.center) > 1e-12:
            raise ValueError("inner-circle data must be centred at 0")
        if not 0.0 < circle_r.radius < 1.0:
            raise ValueError(
                f"inner radius must lie in (0, 1), got {circle_r.radius!r}"
            )
        u_abs = np.abs(outer(data_inner.points))
        inner_moduli = data_inner.moduli / u_abs
        if float(inner_moduli.min()) < 1e-8:
            raise ZeroOnCircle(
                "moduli vanish on the inner circle; divide out the zeros "
                "(finitely many) before retrieval"
            )
        inner_data = ModulusData(circle_r, data_inner.points, inner_moduli)

    with _stage("degree_search"):
        b, forward_residual = _search_degree(inner_data, config)

    with _stage("assemble"):
        # max modulus errors of B * u on the unit-circle grid and the inner
        # samples, relative to the largest boundary modulus (which bounds
        # |f| on both circles) so that c f and f are judged alike; u_abs is
        # reused, not evaluated again
        m_t = boundary.moduli
        scale = float(m_t.max())
        residual_t = float(np.abs(np.abs(b(boundary.points)) * m_t - m_t).max()) / scale
        residual_rt = float(
            np.abs(np.abs(b(data_inner.points)) * u_abs - data_inner.moduli).max()
        ) / scale
        if max(residual_t, residual_rt) > config.residual_tol:
            raise ResidualTooLarge(
                f"assembled residuals ({residual_t:.3e}, {residual_rt:.3e}) exceed "
                f"{config.residual_tol:.3e}"
            )
        diagnostics = RetrievalDiagnostics(
            forward_residual=forward_residual,
            inner_radius=circle_r.radius,
            n_samples_T=len(data_boundary),
            n_samples_rT=len(data_inner),
            degree_max=config.degree_max,
            residual_tol=config.residual_tol,
        )
    return RetrievalResult(
        blaschke=b,
        outer=outer,
        residual_T=residual_t,
        residual_rT=residual_rt,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class EqualityCertificate:
    """Outcome of the finite-point equal-modulus criterion."""

    verdict: str  # "equal_on_circle" | "inconclusive"
    agreeing_count: int
    bound: int
    n_points: int
    radius: float
    tol: float
    equation_identically_zero: bool
    equation_max_coeff: float
    equation_scale: float

    @property
    def equal_on_circle(self) -> bool:
        return self.verdict == "equal_on_circle"

    def to_json(self) -> dict:
        return asdict(self)


def certify_finite_points(
    b1: BlaschkeProduct,
    b2: BlaschkeProduct,
    points,
    tol: float = 1e-9,
) -> EqualityCertificate:
    """Certify |b1| = |b2| on a whole centred circle from finitely many points.

    If the moduli agree (within ``tol``) at more than
    2 deg(b1) + 2 deg(b2) - 1 distinct points of a common centred circle of
    radius r in (0, 1), and the difference polynomial is identically zero
    (consistency check), the moduli agree on the whole circle and the
    products differ by a unimodular constant.  Otherwise the certificate is
    inconclusive, with the observed count and the bound.  ``tol`` must be
    finite and positive.
    """
    _check_tolerance("tol", tol)
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) == 0:
        raise ValueError("empty point set")
    pts = pts[dedup_indices(pts)]
    radii = np.abs(pts)
    r = float(np.median(radii))
    if float(np.abs(radii - r).max()) > 1e-10:
        raise PointsNotOnCommonCircle(
            f"point radii spread {float(np.abs(radii - r).max()):.3e} exceeds 1e-10"
        )
    if not 0.0 < r < 1.0:
        raise ValueError(f"certification circle radius must lie in (0, 1), got {r!r}")
    gap = np.abs(np.abs(b1(pts)) - np.abs(b2(pts)))
    agreeing = int(np.count_nonzero(gap <= tol))
    bound = 2 * b1.degree + 2 * b2.degree - 1
    eq = modulus_equation(b1, b2, r)
    equal = agreeing > bound and eq.is_identically_zero
    return EqualityCertificate(
        verdict="equal_on_circle" if equal else "inconclusive",
        agreeing_count=agreeing,
        bound=bound,
        n_points=len(pts),
        radius=r,
        tol=tol,
        equation_identically_zero=eq.is_identically_zero,
        equation_max_coeff=eq.max_coeff,
        equation_scale=eq.scale,
    )


def parametrize_pair(
    f: RationalFunction, g: RationalFunction, r: float
) -> tuple[BlaschkeProduct, BlaschkeProduct]:
    """Blaschke products (in z/r) relating two rationals of equal modulus on r*T.

    Returns (B1, B2) with B1(z/r) f(z) = B2(z/r) g(z): B1 collects the
    zeros of g and poles of f inside the circle (scaled by 1/r), B2 the
    zeros of f and poles of g, common factors cancelled; the unimodular
    constant is fixed by least-squares alignment and the identity is
    verified on a 64-point interior grid to relative residual 1e-9.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r!r}")
    zeros_f = f.zeros()
    poles_f = f.poles()
    zeros_g = g.zeros()
    poles_g = g.poles()
    for w in (*zeros_f, *poles_f, *zeros_g, *poles_g):
        if abs(abs(w) - r) <= 1e-9:
            raise ZeroOnCircle(
                f"zero or pole at {w} lies on the radius-{r} circle"
            )
    gap = verify_equal_modulus(f, g, Circle(0.0, r).sample_points(256, 0.123)).max_deviation
    if gap > 1e-9:
        raise ModulusMismatchOnCircle(f"max modulus gap {gap:.3e} on the radius-{r} circle")
    b1_raw = [w for w in (*zeros_g, *poles_f) if abs(w) < r]
    b2_raw = [w for w in (*zeros_f, *poles_g) if abs(w) < r]
    b1_kept, b2_kept = cancel_common(b1_raw, b2_raw, 1e-9)
    b1 = BlaschkeProduct(1.0, tuple(w / r for w in b1_kept))
    b2_base = BlaschkeProduct(1.0, tuple(w / r for w in b2_kept))
    grid = Circle(0.0, 0.5 * r).sample_points(64)
    lhs = b1(grid / r) * f(grid)
    rhs = b2_base(grid / r) * g(grid)
    lam = align_constant(lhs, rhs)
    b2 = b2_base.with_constant(lam)
    scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1e-300)
    rel = float(np.abs(lhs - lam * rhs).max()) / scale
    if rel > 1e-9:
        raise ResidualTooLarge(
            f"parametrization identity residual {rel:.3e} exceeds 1e-9"
        )
    return b1, b2


@dataclass(frozen=True)
class EqualModulusReport:
    max_deviation: float
    worst_point: complex
    n_points: int
    tol: float | None = None

    def __post_init__(self):
        if self.tol is not None:
            _check_tolerance("tol", self.tol)

    @property
    def within_tol(self) -> bool | None:
        if self.tol is None:
            return None
        return self.max_deviation <= self.tol

    def to_json(self) -> dict:
        return {
            **asdict(self),
            "worst_point": [self.worst_point.real, self.worst_point.imag],
            "within_tol": self.within_tol,
        }


def verify_equal_modulus(f, g, points, tol: float | None = None) -> EqualModulusReport:
    """Max |(|f| - |g|)| over an array of points, with the worst point.

    A pole of f or g on the set raises EvaluationAtPole (``modulus_samples``).
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) == 0:
        raise ValueError("empty point set")
    gap = np.abs(modulus_samples(f, pts).moduli - modulus_samples(g, pts).moduli)
    worst = int(np.argmax(gap))
    return EqualModulusReport(
        max_deviation=float(gap[worst]),
        worst_point=complex(pts[worst]),
        n_points=len(pts),
        tol=tol,
    )
