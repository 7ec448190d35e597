import numpy as np
import pytest

from discphase import (
    AllOfCircle,
    BlaschkeProduct,
    Polynomial,
    RationalFunction,
    build_modulus_product,
    equality_points_on_circle,
    function_expr_from_json,
    function_expr_to_json,
    modulus_equation,
    poly_roots,
)
from discphase.rational import _cluster_roots
from conftest import random_blaschke


# ---------------------------------------------------------------- polynomials


def test_polynomial_trim_and_degree():
    p = Polynomial([1.0, 2.0, 0.0, 1e-20])
    assert p.degree == 1
    assert Polynomial([0.0, 0.0]).is_zero


def test_polynomial_rejects_a_coefficient_whose_modulus_overflows():
    with pytest.raises(ValueError, match="coefficient's modulus overflows"):
        Polynomial([1, 1.5e308 + 1.5e308j])


def test_polynomial_eval_and_arithmetic():
    p = Polynomial([1.0, 0.0, 1.0])  # 1 + z^2
    q = Polynomial([0.0, 1.0])  # z
    assert p(2.0) == pytest.approx(5.0)
    assert (p * q)(2.0) == pytest.approx(10.0)


def test_polynomial_from_roots():
    p = Polynomial(2.0 * Polynomial.from_roots([1.0, -1.0]).coeffs)
    assert p(1.0) == pytest.approx(0.0)
    assert p(0.0) == pytest.approx(-2.0)


def test_polynomial_json_roundtrip():
    p = Polynomial([1.0 + 2j, 0.5])
    assert np.array_equal(function_expr_from_json(function_expr_to_json(p)).coeffs, p.coeffs)


# ----------------------------------------------------------------- root finder


def test_roots_of_quadratic():
    roots = sorted(poly_roots(Polynomial([1.0, 0.0, 1.0])), key=lambda w: w.imag)
    assert roots[0] == pytest.approx(-1j, abs=1e-12)
    assert roots[1] == pytest.approx(1j, abs=1e-12)


def test_roots_of_expanded_factors():
    p = Polynomial.from_roots([0.3, 0.5j])
    roots = sorted(poly_roots(p), key=lambda w: w.real)
    assert roots[0] == pytest.approx(0.5j, abs=1e-10)
    assert roots[1] == pytest.approx(0.3, abs=1e-10)


def test_roots_of_eight_separated_factors():
    rng = np.random.default_rng(42)
    roots: list[complex] = []
    while len(roots) < 8:
        cand = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if all(abs(cand - r) >= 0.1 for r in roots):
            roots.append(cand)
    p = Polynomial((1.3 - 0.2j) * Polynomial.from_roots(roots).coeffs)
    recovered = poly_roots(p)
    for r in roots:
        assert min(abs(r - s) for s in recovered) < 1e-8


def test_roots_expand_identity_property():
    rng = np.random.default_rng(9)
    for _ in range(20):
        degree = int(rng.integers(2, 11))
        roots: list[complex] = []
        while len(roots) < degree:
            cand = complex(2 * rng.uniform(-1, 1), 2 * rng.uniform(-1, 1))
            if all(abs(cand - r) >= 0.1 for r in roots):
                roots.append(cand)
        recovered = poly_roots(Polynomial.from_roots(roots))
        for r in roots:
            assert min(abs(r - s) for s in recovered) < 1e-8


@pytest.mark.parametrize("n_zeros", [8, 10])
def test_roots_with_retrieval_dynamic_range(n_zeros):
    # the denominator of a fitted |B|^2 on rT has roots r*a and 1/(r*conj(a))
    r = 0.5
    rng = np.random.default_rng(n_zeros)
    for _ in range(5):
        zeros: list[complex] = []
        while len(zeros) < n_zeros:
            cand = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(cand - a) >= 0.25 for a in zeros):
                zeros.append(cand)
        roots = [r * a for a in zeros] + [1 / (r * a.conjugate()) for a in zeros]
        p = Polynomial.from_roots(roots)
        recovered = np.array(poly_roots(p))
        assert len(recovered) == 2 * n_zeros
        for w in roots:
            assert np.abs(recovered - w).min() <= 1e-8 * abs(w)
        bound = 1e-9 * np.abs(p.coeffs).max() * np.maximum(1.0, np.abs(recovered)) ** p.degree
        assert np.all(np.abs(p(recovered)) <= bound)


def test_roots_cluster_multiplicity():
    p = Polynomial.from_roots([0.5, 0.5])
    roots = poly_roots(p)
    assert len(roots) == 2
    assert roots[0] == roots[1]  # shared cluster representative
    assert abs(roots[0] - 0.5) < 1e-6


def test_cluster_roots_matches_greedy_loop():
    def greedy(roots, tol):
        clusters: list[list[complex]] = []
        for r in roots[np.lexsort((roots.imag, roots.real))]:
            home = next((c for c in clusters if abs(r - c[0]) <= tol), None)
            if home is None:
                clusters.append([complex(r)])
            else:
                home.append(complex(r))
        return [complex(np.mean(c)) for c in clusters for _ in c]

    rng = np.random.default_rng(5)
    for k in range(300):
        z = rng.normal(size=12) + 1j * rng.normal(size=12)
        if k % 2:  # some roots within 1e-8 of others, and exact copies
            z[:4] = z[4:8] + rng.normal(scale=5e-9, size=4)
            z[8] = z[9]
        got = _cluster_roots(z, 1e-8)
        assert got == greedy(z, 1e-8)
        assert all(type(w) is complex for w in got)


def test_roots_of_linear_polynomials():
    # c z: np.roots strips the zero root and returns it as a real array
    assert poly_roots(Polynomial([0.0, 2.0])) == [0j]
    assert all(type(w) is complex for w in poly_roots(Polynomial([0.0, 2.0])))
    assert poly_roots(Polynomial([1.0, 2.0])) == [-0.5 + 0j]


def test_roots_requires_degree():
    # a nonzero constant has no roots; every point is a root of the zero polynomial
    assert poly_roots(Polynomial([2.0 - 1j])) == []
    with pytest.raises(ValueError):
        poly_roots(Polynomial([0.0]))


# ------------------------------------------------------------ rational objects


def test_rational_eval_and_multiplication():
    f = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([1.0]))
    g = RationalFunction(f.num * f.num, f.den * f.den)
    assert g(3.0) == pytest.approx(9.0)


def test_rational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        RationalFunction(Polynomial([1.0]), Polynomial([0.0]))


def test_rational_from_zeros_poles_cancellation(caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="discphase.rational"):
        f = RationalFunction.from_zeros_poles([0.3, 0.5], [0.5, -0.2])
    assert "cancelling" in caplog.text
    assert f.num.degree == 1 and f.den.degree == 1
    assert f(0.3) == pytest.approx(0.0)


def test_rational_json_roundtrip():
    f = RationalFunction(Polynomial([1.0, 2.0]), Polynomial([1.0, 0.0, 1.0]))
    back = function_expr_from_json(function_expr_to_json(f))
    assert np.array_equal(back.num.coeffs, f.num.coeffs)
    assert np.array_equal(back.den.coeffs, f.den.coeffs)


# ------------------------------------------------------------ modulus products


def test_modulus_product_single_zero_at_origin_is_constant():
    r = 0.37
    R = build_modulus_product(BlaschkeProduct(1.0, (0.0,)), r)
    zs = r * np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.abs(R(zs) - r * r).max() < 1e-15


def test_modulus_product_single_factor_matches_formula():
    # (z - a)(r^2 - conj(a) z) / ((1 - conj(a) z)(z - r^2 a)), coefficient by coefficient
    a = 0.3 - 0.45j
    r = 0.6
    R = build_modulus_product(BlaschkeProduct(1.0, (a,)), r)
    ac = a.conjugate()
    num_expected = np.convolve([-a, 1.0], [r * r, -ac])
    den_expected = np.convolve([1.0, -ac], [-r * r * a, 1.0])
    assert np.allclose(R.num.coeffs, num_expected, atol=1e-15)
    assert np.allclose(R.den.coeffs, den_expected, atol=1e-15)


def test_modulus_product_equals_squared_modulus_on_circle():
    rng = np.random.default_rng(3)
    b = random_blaschke(rng, 3)
    r = 0.5
    R = build_modulus_product(b, r)
    zs = r * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.abs(R(zs) - np.abs(b(zs)) ** 2).max() < 1e-12


def test_modulus_product_real_on_circle():
    rng = np.random.default_rng(4)
    b = random_blaschke(rng, 4)
    zs = 0.7 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.abs(build_modulus_product(b, 0.7)(zs).imag).max() < 1e-12


# --------------------------------------------------------- difference equation


def test_equation_vanishes_for_identical_products():
    b = BlaschkeProduct(1.0, (0.3, -0.2j))
    assert modulus_equation(b, b, 0.5).is_identically_zero


def test_equation_vanishes_for_rotated_product():
    b = BlaschkeProduct(1.0, (0.3, -0.2j))
    b2 = b.with_constant(np.exp(0.9j))
    assert modulus_equation(b, b2, 0.5).is_identically_zero


def test_equation_small_case_degree_and_nonzero():
    d = modulus_equation(
        BlaschkeProduct(1.0, (0.3,)), BlaschkeProduct(1.0, (0.5,)), 0.5
    ).poly
    assert 1 <= d.degree <= 3
    assert not d.is_zero


def test_equation_small_case_against_symbolic_expansion():
    # exact symbolic oracle for M = N = 1, alpha = 0.3, beta = 0.5, r = 0.5
    import sympy

    z = sympy.symbols("z")
    alpha, beta, r = sympy.Rational(3, 10), sympy.Rational(1, 2), sympy.Rational(1, 2)
    p1 = sympy.expand((z - alpha) * (r**2 - alpha * z))
    q1 = sympy.expand((1 - alpha * z) * (z - r**2 * alpha))
    p2 = sympy.expand((z - beta) * (r**2 - beta * z))
    q2 = sympy.expand((1 - beta * z) * (z - r**2 * beta))
    d_exact = sympy.Poly(sympy.expand(p1 * q2 - p2 * q1), z)
    exact_coeffs = [complex(c) for c in reversed(d_exact.all_coeffs())]
    d = modulus_equation(
        BlaschkeProduct(1.0, (0.3,)), BlaschkeProduct(1.0, (0.5,)), 0.5
    ).poly
    padded = np.zeros(len(exact_coeffs), dtype=complex)
    padded[: len(d.coeffs)] = d.coeffs
    assert np.abs(padded - np.array(exact_coeffs)).max() < 1e-14


def test_equation_degree_bound_random_pairs():
    rng = np.random.default_rng(77)
    for _ in range(30):
        m_deg = int(rng.integers(1, 5))
        n_deg = int(rng.integers(1, 5))
        b1 = random_blaschke(rng, m_deg)
        b2 = random_blaschke(rng, n_deg)
        r = float(rng.choice([0.3, 0.5, 0.8]))
        d = modulus_equation(b1, b2, r).poly
        assert d.degree <= 2 * m_deg + 2 * n_deg - 1


# -------------------------------------------------------------- equality points


def _grid_sign_changes(b1, b2, r, n=4096):
    theta = 2 * np.pi * np.arange(n) / n
    gap = np.abs(b1(r * np.exp(1j * theta))) - np.abs(b2(r * np.exp(1j * theta)))
    signs = np.sign(gap)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs != np.roll(signs, 1)))


def test_equality_points_basic_pair():
    b1 = BlaschkeProduct(1.0, (0.3,))
    b2 = BlaschkeProduct(1.0, (0.5,))
    points = equality_points_on_circle(b1, b2, 0.5)
    distinct = set(points)
    assert 1 <= len(distinct) <= 3
    for w in distinct:
        assert abs(abs(w) - 0.5) <= 1e-8
        assert abs(abs(b1(w)) - abs(b2(w))) < 1e-9
    assert _grid_sign_changes(b1, b2, 0.5) == len(distinct)


def test_equality_points_all_of_circle_signal():
    b1 = BlaschkeProduct(1.0, (0.3, 0.1j))
    with pytest.raises(AllOfCircle):
        equality_points_on_circle(b1, b1.with_constant(1j), 0.5)


def test_equality_points_against_bisection_oracle():
    # |b_{0.4}| = 0.6 on the 0.6-circle: bracket each crossing on a dense
    # grid and bisect, independently of the polynomial route
    b1 = BlaschkeProduct(1.0, (0.0,))
    b2 = BlaschkeProduct(1.0, (0.4,))
    r = 0.6

    def gap(theta):
        z = r * np.exp(1j * theta)
        return abs(b1(z)) - abs(b2(z))

    thetas = np.linspace(0.0, 2 * np.pi, 2049)
    crossings = []
    for t0, t1 in zip(thetas, thetas[1:]):
        if gap(t0) == 0.0:
            crossings.append(t0)
            continue
        if gap(t0) * gap(t1) < 0:
            lo, hi = t0, t1
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if gap(lo) * gap(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            crossings.append(0.5 * (lo + hi))
    expected = sorted(r * np.exp(1j * np.array(crossings)), key=lambda w: np.angle(w))
    got = sorted(set(equality_points_on_circle(b1, b2, r)), key=lambda w: np.angle(w))
    assert len(got) == len(expected)
    for w, e in zip(got, expected):
        assert abs(w - e) < 1e-7


def test_sign_change_count_bounded_by_degree_bound():
    rng = np.random.default_rng(55)
    for _ in range(25):
        m_deg = int(rng.integers(1, 5))
        n_deg = int(rng.integers(1, 5))
        b1 = random_blaschke(rng, m_deg)
        b2 = random_blaschke(rng, n_deg)
        r = float(rng.choice([0.3, 0.5, 0.8]))
        assert _grid_sign_changes(b1, b2, r) <= 2 * m_deg + 2 * n_deg - 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_modulus_product(BlaschkeProduct(1.0, (0.3,)), 1.0), r"r must lie in \(0, 1\)"),
    ],
    ids=["product-radius"],
)
def test_rational_input_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()
