import math

import numpy as np
import pytest

from discphase import (
    BlaschkeProduct,
    Circle,
    DegreeCapExceeded,
    DiscPhaseError,
    ModulusData,
    ModulusMismatchOnCircle,
    Polynomial,
    RationalFunction,
    RetrievalConfig,
    UNIT_CIRCLE,
    ZeroOnBoundary,
    ZeroOnCircle,
    align_constant,
    boundary_modulus_of,
    certify_finite_points,
    fit_modulus_rational,
    modulus_samples,
    parametrize_pair,
    perpendicular_lines_pair,
    poly_roots,
    retrieve_two_circles,
    sample_modulus,
    verify_equal_modulus,
)
from conftest import outer_product_fn, random_blaschke, random_outer_coeffs


def _product_fn(b, coeffs):
    outer = outer_product_fn(coeffs)

    def fn(z):
        return b(z) * outer(z)

    return fn


def _unit_boundary(n):
    """|f| = 1 on the unit circle: the outer factor is 1, so the inner data
    reaches degree_search undivided."""
    return ModulusData(UNIT_CIRCLE, UNIT_CIRCLE.sample_points(n), np.ones(n))


# ------------------------------------------------------------------ ModulusData


def test_modulus_data_rejects_off_circle_points():
    with pytest.raises(ValueError, match="deviate"):
        ModulusData(Circle(0.0, 0.5), np.array([0.5, 0.6]), np.array([1.0, 1.0]))


def test_modulus_data_rejects_duplicate_points():
    with pytest.raises(ValueError, match="distinct"):
        ModulusData(
            Circle(0.0, 0.5), np.array([0.5, 0.5, 0.5j]), np.array([1.0, 1.0, 1.0])
        )


# ------------------------------------------------------------------------ fit


def _fitted(fit, r):
    """The fitted rational as a function of z (the fit is in w = z / r)."""
    h = RationalFunction(fit.num, fit.den)
    return lambda z: h(np.asarray(z) / r)


_EPS = np.finfo(float).eps


def _pin_data(degree, m, r):
    # data of degree + 1, so the residual is above round-off and the
    # smallest singular direction is unique
    rng = np.random.default_rng([degree, m, int(10 * r)])
    b = random_blaschke(rng, degree + 1, max_modulus=0.8, min_separation=0.2)
    return sample_modulus(b, Circle(0.0, r), m)


def _reversed(data):
    """The same samples in reversed order, which is no grid in the fit's sense."""
    return ModulusData(data.circle, data.points[::-1], data.moduli[::-1])


def _explicit_design(data, degree):
    r = data.circle.radius
    powers = (data.points / r)[:, None] ** np.arange(2 * degree + 1)
    return np.hstack([powers, -(data.moduli**2)[:, None] * powers])


def _poles(den, r):
    return r * np.array(poly_roots(den))


def _check_attains_the_smallest_singular_value(fit, data, degree):
    """The fit's unit vector x has ||A x|| <= s_min + 10 eps s_max, and its
    residual is s_min / sqrt(m) within the same distance (Weyl); returns the
    singular values and right vectors of the explicit design A."""
    design = _explicit_design(data, degree)
    _, s, vh = np.linalg.svd(design, full_matrices=False)
    n_coeff = 2 * degree + 1
    x = np.zeros(2 * n_coeff, dtype=complex)
    x[: len(fit.num.coeffs)] = fit.num.coeffs
    x[n_coeff : n_coeff + len(fit.den.coeffs)] = fit.den.coeffs
    x /= np.linalg.norm(x)
    assert np.linalg.norm(design @ x) <= s[-1] + 10 * _EPS * s[0]
    assert abs(fit.residual * np.sqrt(len(data)) - s[-1]) <= 10 * _EPS * s[0]
    return s, vh


@pytest.mark.parametrize("degree", range(9))
@pytest.mark.parametrize("m", [64, 256, 4096])
@pytest.mark.parametrize("r", [0.3, 0.7])
def test_fit_agrees_with_the_svd_of_the_explicit_design(degree, m, r):
    # the general path factors the same matrix as the explicit SVD; in grid
    # order the data would take the FFT path, which these bounds cannot pin
    data = _reversed(_pin_data(degree, m, r))
    fit = fit_modulus_rational(data, degree)
    n_coeff = 2 * degree + 1
    _, s, vh = np.linalg.svd(_explicit_design(data, degree), full_matrices=False)
    assert fit.residual == pytest.approx(s[-1] / np.sqrt(m), rel=1e-12)
    assert abs(fit.den.coeffs[-1] - 1.0) < 1e-15
    want = _poles(Polynomial(vh[-1, n_coeff:].conj()), r)
    got = _poles(fit.den, r)
    assert len(got) == len(want) == 2 * degree
    for pole in want:
        assert np.abs(got - pole).min() < 1e-9


def _check_inner_poles_agree(den, want, r, s):
    """Where the smallest singular value is separated by more than
    1e-6 s_max, each pole inside the circle, the ones retrieval reads, is
    within 1e-9 of one of ``want``."""
    if s[-2] - s[-1] > 1e-6 * s[0]:
        got = _poles(den, r)
        for pole in got[np.abs(got) < r]:
            assert np.abs(want - pole).min() < 1e-9


@pytest.mark.parametrize("degree", range(9))
@pytest.mark.parametrize("m", [64, 256, 4096])
@pytest.mark.parametrize("r", [0.3, 0.7])
def test_grid_fit_attains_the_smallest_singular_value_of_the_explicit_design(degree, m, r):
    # a 1-ulp relative change of the design entries moves the explicit SVD's
    # poles by up to 4.5e-6 here (r = 0.3, m = 4096, degree 8), so the poles
    # are pinned only where the smallest singular value is well separated
    data = _pin_data(degree, m, r)
    fit = fit_modulus_rational(data, degree)
    s, vh = _check_attains_the_smallest_singular_value(fit, data, degree)
    assert abs(fit.den.coeffs[-1] - 1.0) < 1e-15
    want = _poles(Polynomial(vh[-1, 2 * degree + 1 :].conj()), r)
    assert len(_poles(fit.den, r)) == len(want) == 2 * degree
    _check_inner_poles_agree(fit.den, want, r, s)


@pytest.mark.parametrize("degree", [0, 3, 6, 8])
@pytest.mark.parametrize("m", [64, 4096])
@pytest.mark.parametrize("r", [0.3, 0.7])
def test_grid_and_general_fits_agree(degree, m, r):
    # the same samples in grid order (FFT path) and reversed (QR path)
    grid = _pin_data(degree, m, r)
    fits = [fit_modulus_rational(d, degree) for d in (grid, _reversed(grid))]
    for fit, data in zip(fits, (grid, _reversed(grid))):
        s, _ = _check_attains_the_smallest_singular_value(fit, data, degree)
    assert abs(fits[0].residual - fits[1].residual) * np.sqrt(m) <= 10 * _EPS * s[0]
    _check_inner_poles_agree(fits[0].den, _poles(fits[1].den, r), r, s)


def test_fit_takes_the_grid_path_only_on_a_grid_in_order():
    from discphase.geometry import _unit_grid_of

    data = _pin_data(2, 64, 0.5)
    assert _unit_grid_of(data.points) is not None
    assert _unit_grid_of(_reversed(data).points) is None


def test_fit_constant_function():
    data = sample_modulus(lambda z: 1.5 * np.ones(np.shape(z), dtype=complex), Circle(0.0, 0.5), 16)
    fit = fit_modulus_rational(data, 0)
    assert fit.residual < 1e-13
    assert _fitted(fit, 0.5)(0.5) == pytest.approx(2.25, abs=1e-10)


def test_fit_matches_reflection_identity_structure():
    b = BlaschkeProduct(1.0, (0.3,))
    r = 0.5
    data = sample_modulus(b, Circle(0.0, r), 64)
    fit = fit_modulus_rational(data, 1)
    assert fit.residual < 1e-10
    h = RationalFunction(fit.num, fit.den)
    zeros = sorted((r * w for w in h.zeros()), key=lambda z: z.real)
    poles = sorted((r * w for w in h.poles()), key=abs)
    assert zeros[0] == pytest.approx(0.3, abs=1e-8)
    assert zeros[1] == pytest.approx(r * r / 0.3, abs=1e-8)
    assert poles[0] == pytest.approx(r * r * 0.3, abs=1e-8)
    assert poles[1] == pytest.approx(1 / 0.3, abs=1e-7)


def test_fit_forward_oracle_values():
    # fitted H agrees with |B|^2 at off-grid points of the circle
    rng = np.random.default_rng(8)
    b = random_blaschke(rng, 3)
    r = 0.6
    data = sample_modulus(b, Circle(0.0, r), 64)
    fit = fit_modulus_rational(data, 3)
    off = r * np.exp(1j * (2 * np.pi * np.arange(37) / 37 + 0.05))
    assert np.abs(_fitted(fit, r)(off) - np.abs(b(off)) ** 2).max() < 1e-9


def test_fit_with_noise_keeps_poles_stable():
    rng = np.random.default_rng(12)
    b = BlaschkeProduct(1.0, (0.3,))
    r = 0.5
    pts = Circle(0.0, r).sample_points(64)
    clean = np.abs(b(pts))
    noisy = clean + 1e-6 * rng.standard_normal(64)
    data = ModulusData(Circle(0.0, r), pts, noisy)
    fit = fit_modulus_rational(data, 1)
    assert fit.residual < 1e-5
    inner_pole = r * min(RationalFunction(fit.num, fit.den).poles(), key=abs)
    assert abs(inner_pole - r * r * 0.3) < 5e-4


def test_fit_requires_enough_samples():
    data = sample_modulus(BlaschkeProduct(1.0, (0.3,)), Circle(0.0, 0.5), 8)
    with pytest.raises(ValueError, match="samples"):
        fit_modulus_rational(data, 2)


# -------------------------------------------------------------------- recovery


def test_recover_single_zero_phase_lost():
    b = BlaschkeProduct(np.exp(1j * np.pi / 3), (0.3,))
    data = sample_modulus(b, Circle(0.0, 0.5), 64)
    rec = retrieve_two_circles(_unit_boundary(64), data).blaschke
    assert rec.constant == pytest.approx(1.0)
    assert len(rec.zeros) == 1
    assert rec.zeros[0] == pytest.approx(0.3, abs=1e-8)


def test_recover_constant_data():
    data = sample_modulus(lambda z: np.ones(np.shape(z), dtype=complex), Circle(0.0, 0.5), 32)
    rec = retrieve_two_circles(_unit_boundary(32), data).blaschke
    assert rec.degree == 0


def test_recover_three_zeros():
    b = BlaschkeProduct(1.0, (0.2, -0.4j, 0.5 + 0.3j))
    data = sample_modulus(b, Circle(0.0, 0.6), 128)
    rec = retrieve_two_circles(_unit_boundary(128), data).blaschke
    assert rec.degree == 3
    for z_true in b.zeros:
        assert min(abs(z_true - z) for z in rec.zeros) < 1e-6


@pytest.mark.parametrize(
    "field, bad",
    [("points", math.inf), ("points", math.nan), ("moduli", math.inf), ("moduli", math.nan),
     ("moduli", -0.5)],
)
def test_modulus_data_rejects_non_finite_input(field, bad):
    data = {"points": Circle(0.0, 0.5).sample_points(8), "moduli": np.ones(8)}
    data[field][3] = bad
    with pytest.raises(ValueError, match="must be finite"):
        ModulusData(Circle(0.0, 0.5), data["points"], data["moduli"])


def test_recover_rejects_vanishing_moduli():
    pts = Circle(0.0, 0.5).sample_points(32)
    moduli = np.abs(BlaschkeProduct(1.0, (0.5,))(pts))  # zero sits on the circle
    data = ModulusData(Circle(0.0, 0.5), pts, moduli)
    with pytest.raises(ZeroOnCircle) as info:
        retrieve_two_circles(_unit_boundary(32), data)
    assert info.value.stage == "outer_division"


# ------------------------------------------------------------ degree estimation


def test_estimate_degree_constant():
    data = sample_modulus(lambda z: np.ones(np.shape(z), dtype=complex), Circle(0.0, 0.5), 64)
    assert retrieve_two_circles(_unit_boundary(64), data).degree_used == 0


def test_estimate_degree_forward():
    rng = np.random.default_rng(6)
    b = random_blaschke(rng, 3)
    data = sample_modulus(b, Circle(0.0, 0.5), 128)
    assert retrieve_two_circles(_unit_boundary(128), data).degree_used == 3


def test_estimate_degree_singular_inner_exceeds_cap():
    def singular(z):
        zz = np.asarray(z, dtype=complex)
        return np.exp(-(1 + zz) / (1 - zz))

    data = sample_modulus(singular, Circle(0.0, 0.5), 256)
    with pytest.raises(DegreeCapExceeded) as info:
        retrieve_two_circles(_unit_boundary(256), data, RetrievalConfig(degree_max=8))
    assert info.value.stage == "degree_search"


def test_degree_search_with_too_few_inner_samples_names_the_cause():
    data = ModulusData(Circle(0.0, 0.5), [0.5], [1.0])
    with pytest.raises(ValueError, match="need at least 2 samples for degree 0, got 1"):
        retrieve_two_circles(_unit_boundary(16), data)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-7])
@pytest.mark.parametrize("field", ["residual_tol"])
def test_retrieval_config_requires_finite_positive_tolerances(field, value):
    with pytest.raises(ValueError, match="finite and positive"):
        RetrievalConfig(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 2.0, -1])
@pytest.mark.parametrize("field", ["degree_max"])
def test_retrieval_config_requires_integer_degree(field, value):
    # nan would let the search try degree 0 only, and inf would reach to_json as Infinity
    with pytest.raises(ValueError, match="degree_max must be an integer >= 0"):
        RetrievalConfig(**{field: value})


@pytest.mark.parametrize("degree", [-1, 2.0, math.nan])
def test_fit_modulus_rational_requires_integer_degree(degree):
    data = sample_modulus(BlaschkeProduct(1.0, (0.3,)), Circle(0.0, 0.5), 64)
    with pytest.raises(ValueError, match="degree must be an integer >= 0"):
        fit_modulus_rational(data, degree)


_ONE = RationalFunction(Polynomial([1.0]), Polynomial([1.0]))


def _circle_data(circle, n=16):
    return ModulusData(circle, circle.sample_points(n), np.ones(n))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fit_modulus_rational(_circle_data(Circle(0.1, 0.5)), 0),
         "modulus fit requires a circle centred at 0"),
        (lambda: retrieve_two_circles(_unit_boundary(16), _circle_data(Circle(0.1, 0.5))),
         "inner-circle data must be centred at 0"),
        (lambda: retrieve_two_circles(_unit_boundary(16), _circle_data(Circle(0.0, 1.5))),
         r"inner radius must lie in \(0, 1\)"),
        (lambda: certify_finite_points(BlaschkeProduct(1.0, ()), BlaschkeProduct(1.0, ()), []),
         "empty point set"),
        (lambda: certify_finite_points(
            BlaschkeProduct(1.0, ()), BlaschkeProduct(1.0, ()), Circle(0.0, 1.5).sample_points(8)),
         r"certification circle radius must lie in \(0, 1\)"),
        (lambda: parametrize_pair(_ONE, _ONE, 1.0), r"r must lie in \(0, 1\)"),
    ],
    ids=["fit-centre", "inner-centre", "inner-radius", "certify-empty", "certify-radius",
         "parametrize-radius"],
)
def test_retrieval_input_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ------------------------------------------------------------ two-circle solve


def test_retrieve_blaschke_times_outer():
    b = BlaschkeProduct(1.0, (0.3,))
    f = _product_fn(b, [0.5])
    result = retrieve_two_circles(
        sample_modulus(f, UNIT_CIRCLE, 256),
        sample_modulus(f, Circle(0.0, 0.5), 256),
    )
    assert result.degree_used == 1
    assert result.blaschke.zeros[0] == pytest.approx(0.3, abs=1e-6)
    rng = np.random.default_rng(1)
    pts = 0.9 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
    fv = f(pts)
    gv = result(pts)
    lam = align_constant(fv, gv)
    assert np.abs(fv - lam * gv).max() < 1e-7
    # outer factor alone matches 1 + z/2 up to the same constant
    assert np.abs(result.outer(pts) * lam - (1 + 0.5 * pts)).max() < 1e-7
    # a BoundaryModulus is boundary data as it stands, with the same result
    from_boundary = retrieve_two_circles(
        boundary_modulus_of(f, 256), sample_modulus(f, Circle(0.0, 0.5), 256)
    )
    assert from_boundary.to_json(None) == result.to_json(None)


def _boundary_data(f, points):
    return ModulusData(UNIT_CIRCLE, points, modulus_samples(f, points).moduli)


def test_retrieve_accepts_boundary_grid_in_any_order():
    f = _product_fn(BlaschkeProduct(1.0, (0.3, -0.2 + 0.4j)), [0.5])
    n = 256
    grid = UNIT_CIRCLE.sample_points(n)
    shuffled = grid[np.random.default_rng(5).permutation(n)]
    inner = sample_modulus(f, Circle(0.0, 0.5), n)
    ordered = retrieve_two_circles(_boundary_data(f, grid), inner)
    assert ordered.degree_used == 2
    from_shuffled = retrieve_two_circles(_boundary_data(f, shuffled), inner)
    assert from_shuffled.to_json(None) == ordered.to_json(None)


def _moved_node(n):
    points = UNIT_CIRCLE.sample_points(n)
    points[5] *= np.exp(1e-8j)  # stays on T, 1e-8 off its node
    return points


@pytest.mark.parametrize(
    "points, match",
    [
        (_moved_node(64), "uniform grid"),
        (UNIT_CIRCLE.sample_points(64, np.pi / 64), "uniform grid"),  # half a step off
    ],
)
def test_retrieve_rejects_boundary_off_the_grid(points, match):
    f = outer_product_fn([0.5])
    with pytest.raises(ValueError, match=match):
        retrieve_two_circles(
            _boundary_data(f, points), sample_modulus(f, Circle(0.0, 0.5), 64)
        )


def test_retrieve_rejects_boundary_data_off_the_unit_circle():
    f = outer_product_fn([0.5])
    inner = sample_modulus(f, Circle(0.0, 0.5), 64)
    with pytest.raises(ValueError, match="unit circle"):
        retrieve_two_circles(inner, inner)


def test_retrieve_rejects_boundary_data_with_a_zero_in_the_boundary_stage():
    moduli = np.ones(64)
    moduli[7] = 0.0
    boundary = ModulusData(UNIT_CIRCLE, UNIT_CIRCLE.sample_points(64), moduli)
    with pytest.raises(ZeroOnBoundary) as info:
        retrieve_two_circles(boundary, _unit_boundary(64))
    assert info.value.stage == "boundary"


def test_retrieve_outer_only():
    f = outer_product_fn([0.5])
    result = retrieve_two_circles(
        sample_modulus(f, UNIT_CIRCLE, 256),
        sample_modulus(f, Circle(0.0, 0.5), 256),
    )
    assert result.degree_used == 0
    assert result.blaschke.degree == 0


def test_retrieve_inconsistent_data_fails_loudly():
    f = _product_fn(BlaschkeProduct(1.0, (0.2, -0.4j)), [0.4j])
    g = outer_product_fn([0.3j])
    with pytest.raises(DiscPhaseError) as info:
        retrieve_two_circles(
            sample_modulus(f, UNIT_CIRCLE, 256),
            sample_modulus(g, Circle(0.0, 0.5), 256),
        )
    assert info.value.stage is not None


def test_retrieve_roundtrip_small_batch():
    rng = np.random.default_rng(33)
    grid = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    for _ in range(10):
        degree = int(rng.integers(0, 6))
        b = random_blaschke(rng, degree)
        coeffs = random_outer_coeffs(rng, int(rng.integers(1, 4)))
        f = _product_fn(b, coeffs)
        result = retrieve_two_circles(
            sample_modulus(f, UNIT_CIRCLE, 256),
            sample_modulus(f, Circle(0.0, 0.5), 256),
        )
        fv = f(grid)
        gv = result(grid)
        lam = align_constant(fv, gv)
        assert np.abs(fv - lam * gv).max() < 1e-6
        assert result.degree_used == degree


def test_retrieve_scale_consistency():
    # |f| = |g| exactly when |s f| = |s g|, so retrieval must not depend on
    # the scale of the data: its residuals and its boundary zero rule are
    # relative to the largest boundary modulus
    b = BlaschkeProduct(1.0, (0.25 + 0.1j,))
    f = _product_fn(b, [0.4])
    data_t = sample_modulus(f, UNIT_CIRCLE, 128)
    data_r = sample_modulus(f, Circle(0.0, 0.5), 128)
    base = retrieve_two_circles(data_t, data_r)
    zs = np.array([0.0, 0.3, -0.2j])
    for s in (3.7, 1e-12, 1e-9, 1e6, 1e8, 1e10, 1e12):
        scaled = retrieve_two_circles(
            ModulusData(UNIT_CIRCLE, data_t.points, s * data_t.moduli),
            ModulusData(Circle(0.0, 0.5), data_r.points, s * data_r.moduli),
        )
        assert scaled.degree_used == base.degree_used == 1, s
        assert scaled.blaschke.zeros[0] == pytest.approx(base.blaschke.zeros[0], abs=1e-9), s
        assert max(scaled.residual_T, scaled.residual_rT) < 1e-13, s
        assert np.abs(scaled.outer(zs) - s * base.outer(zs)).max() < 1e-9 * s, s


def test_retrieve_at_the_true_degree_carries_no_rank_deficiency_note(caplog):
    # sigma[-2] / sigma[0] falls below 1e-8 at the true degree on exact data,
    # so the flag says nothing about an overestimated degree
    b = random_blaschke(np.random.default_rng(0), 7)
    data_r = sample_modulus(b, Circle(0.0, 0.5), 256)
    assert fit_modulus_rational(data_r, 7).rank_deficient
    with caplog.at_level("DEBUG", logger="discphase"):
        result = retrieve_two_circles(sample_modulus(b, UNIT_CIRCLE, 256), data_r)
    assert result.degree_used == 7
    assert not caplog.records


# ----------------------------------------------------------------- certificate


def test_certificate_fires_for_rotated_product():
    rng = np.random.default_rng(3)
    b1 = random_blaschke(rng, 2, unimodular_constant=False)
    b2 = b1.with_constant(1j)
    pts = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)  # 8 > 2*2 + 2*2 - 1
    cert = certify_finite_points(b1, b2, pts)
    assert cert.equal_on_circle
    assert cert.agreeing_count == 8
    assert cert.bound == 7


def test_certificate_inconclusive_for_distinct_products():
    b1 = BlaschkeProduct(1.0, (0.3,))
    b2 = BlaschkeProduct(1.0, (0.5,))
    pts = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    cert = certify_finite_points(b1, b2, pts)
    assert not cert.equal_on_circle
    assert cert.agreeing_count <= 3


def test_certificate_boundary_of_criterion():
    # exactly bound-many agreeing points must not certify
    rng = np.random.default_rng(9)
    b1 = random_blaschke(rng, 2, unimodular_constant=False)
    b2 = b1.with_constant(-1.0)
    pts = 0.4 * np.exp(2j * np.pi * np.arange(7) / 7)  # 7 == bound
    cert = certify_finite_points(b1, b2, pts)
    assert cert.agreeing_count == 7
    assert not cert.equal_on_circle


def test_certificate_rejects_scattered_points():
    from discphase import PointsNotOnCommonCircle

    b = BlaschkeProduct(1.0, (0.3,))
    with pytest.raises(PointsNotOnCommonCircle):
        certify_finite_points(b, b, np.array([0.5, 0.6, 0.5j]))


# -------------------------------------------------------------- parametrization


def test_parametrize_equal_functions():
    f = RationalFunction(Polynomial([1.0, 0.5]), Polynomial([1.0]))
    b1, b2 = parametrize_pair(f, f, 0.5)
    assert b1.degree == 0 and b2.degree == 0
    assert b2.constant == pytest.approx(1.0)


def test_parametrize_monomial_against_constant():
    r = 0.5
    f = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([1.0]))  # z
    g = RationalFunction(Polynomial([r]), Polynomial([1.0]))  # constant r
    b1, b2 = parametrize_pair(f, g, r)
    assert b1.degree == 0
    assert b2.degree == 1
    assert b2.zeros[0] == pytest.approx(0.0)
    zs = 0.25 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.abs(b1(zs / r) * f(zs) - b2(zs / r) * g(zs)).max() < 1e-12


def test_parametrize_forward_constructed_pairs():
    rng = np.random.default_rng(21)
    r = 0.5
    for _ in range(10):
        inner1 = random_blaschke(rng, int(rng.integers(1, 3)), max_modulus=0.8)
        inner2 = random_blaschke(rng, int(rng.integers(1, 3)), max_modulus=0.8)
        h = Polynomial([1.0, complex(0.3 * rng.standard_normal(), 0.3 * rng.standard_normal())])

        def scaled_parts(b, radius):
            num, den = Polynomial([complex(b.constant)]), Polynomial([1.0])
            for a in b.zeros:
                num = num * Polynomial([-a, 1.0 / radius])
                den = den * Polynomial([1.0, -np.conj(a) / radius])
            return num, den

        n1, d1 = scaled_parts(inner1, r)
        n2, d2 = scaled_parts(inner2, r)
        f = RationalFunction(n2 * h * d1, d2 * d1)  # B2(z/r) h(z)
        g = RationalFunction(n1 * h * d2, d1 * d2)  # B1(z/r) h(z)
        b1, b2 = parametrize_pair(f, g, r)
        grid = 0.5 * r * np.exp(2j * np.pi * np.arange(64) / 64)
        lhs = b1(grid / r) * f(grid)
        rhs = b2(grid / r) * g(grid)
        assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-9
        for z_true in inner1.zeros:
            assert min(abs(z_true - z) for z in b1.zeros) < 1e-7
        for z_true in inner2.zeros:
            assert min(abs(z_true - z) for z in b2.zeros) < 1e-7


def test_parametrize_rejects_modulus_mismatch():
    f = RationalFunction(Polynomial([1.0, 0.5]), Polynomial([1.0]))
    g = RationalFunction(Polynomial([1.0, 0.7]), Polynomial([1.0]))
    with pytest.raises(ModulusMismatchOnCircle):
        parametrize_pair(f, g, 0.5)


def test_parametrize_rejects_zero_on_circle():
    r = 0.5
    f = RationalFunction(Polynomial.from_roots([r]), Polynomial([1.0]))
    with pytest.raises(ZeroOnCircle):
        parametrize_pair(f, f, r)


# ----------------------------------------------------------- modulus verifier


def test_verify_identical():
    f, _ = perpendicular_lines_pair()
    report = verify_equal_modulus(f, f, Circle(0.0, 0.5).sample_points(64))
    assert report.max_deviation == 0.0


def test_verify_classic_pair_on_lines_and_off():
    f, g = perpendicular_lines_pair()
    on_lines = verify_equal_modulus(f, g, np.linspace(-0.9, 0.9, 256))
    assert on_lines.max_deviation < 1e-12
    off = verify_equal_modulus(f, g, Circle(0.0, 0.5).sample_points(256))
    assert off.max_deviation > 1e-3
    assert abs(abs(off.worst_point) - 0.5) < 1e-12


def test_verify_rejects_empty_point_set():
    f, _ = perpendicular_lines_pair()
    with pytest.raises(ValueError, match="empty point set"):
        verify_equal_modulus(f, f, np.array([]))
