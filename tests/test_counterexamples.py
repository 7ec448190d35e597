import math

import numpy as np
import pytest

from discphase import (
    BlaschkeProduct,
    Circle,
    MoebiusMap,
    MoebiusOf,
    PowerComposite,
    ProductExpr,
    RationalFunction,
    StripMap,
    UEqualsV,
    UNIT_CIRCLE,
    finite_set_pair,
    function_expr_from_json,
    function_expr_to_json,
    inverse_point,
    inverse_points_demo,
    perpendicular_lines_pair,
    rational_angle_pair,
    two_circle_right_angle_pair,
    verify_equal_modulus,
)
from discphase.rational import Polynomial

SQRT2 = math.sqrt(2.0)


# ------------------------------------------------------ perpendicular lines


def test_classic_pair_values():
    f, g = perpendicular_lines_pair()
    assert abs(abs(f(0.7)) - 1.0) < 1e-14
    assert f(0.0) == pytest.approx(-1.0)  # (-2i) / (2i)
    # matches (z^2 - 2i)/(z^2 + 2i) and (z^2 - 3i)/(z^2 + 3i) pointwise
    for z in (0.3, 0.5j, 0.2 + 0.4j):
        z2 = z * z
        assert f(z) == pytest.approx((z2 - 2j) / (z2 + 2j))
        assert g(z) == pytest.approx((z2 - 3j) / (z2 + 3j))


def test_classic_pair_differs_off_the_lines():
    f, g = perpendicular_lines_pair()
    w = 0.5 * np.exp(1j * np.pi / 4)
    assert abs(abs(f(w)) - abs(g(w))) > 1e-3


def test_classic_pair_unimodular_on_both_segments():
    f, g = perpendicular_lines_pair()
    for pts in (np.linspace(-0.9, 0.9, 500), 1j * np.linspace(-0.9, 0.9, 500)):
        for fn in (f, g):
            assert np.abs(np.abs(fn(pts)) - 1.0).max() < 1e-13


# ---------------------------------------------------------- rational angles


def test_rational_angle_matches_classic_for_k2():
    f, g = rational_angle_pair(2, 2.0, 3.0)
    fc, gc = perpendicular_lines_pair()
    z = 0.37 - 0.21j
    assert f(z) == pytest.approx(fc(z))
    assert g(z) == pytest.approx(gc(z))


@pytest.mark.parametrize("k", [3, 5])
def test_rational_angle_unimodular_on_advertised_lines(k):
    f, g = rational_angle_pair(k, 2.0, 3.0)
    t = np.linspace(-0.9, 0.9, 301)
    for m in range(k):
        pts = t * np.exp(1j * np.pi * m / k)
        assert np.abs(np.abs(f(pts)) - 1.0).max() < 1e-13
        assert np.abs(np.abs(g(pts)) - 1.0).max() < 1e-13


def test_rational_angle_sharpness_off_lattice_line():
    k = 4
    f, _ = rational_angle_pair(k, 2.0, 3.0)
    t = np.linspace(0.2, 0.9, 101)
    pts = t * np.exp(1j * np.pi / (2 * k))  # halfway between advertised lines
    assert np.abs(np.abs(f(pts)) - 1.0).max() > 1e-6


def test_rational_angle_rejects_equal_parameters():
    with pytest.raises(ValueError):
        rational_angle_pair(3, 2.0, 2.0)
    with pytest.raises(ValueError):
        rational_angle_pair(1, 2.0, 3.0)
    with pytest.raises(ValueError, match="k must be <= 64"):  # classify_angle's largest q
        rational_angle_pair(65, 2.0, 3.0)


# -------------------------------------------------------------- finite sets


def test_finite_set_pair_values_on_x():
    u = BlaschkeProduct(1.0, (0.2,))
    v = BlaschkeProduct(1.0, (0.6,))
    f, g = finite_set_pair((0.5, -0.5), 0.3, u, v)
    assert f(0.5) == pytest.approx(0.3)
    assert g(0.5) == pytest.approx(0.3)
    assert f(-0.5) == pytest.approx(0.3)


def test_finite_set_pair_inner_on_boundary():
    u = BlaschkeProduct(1.0, (0.2,))
    v = BlaschkeProduct(1.0, (0.6,))
    f, g = finite_set_pair((0.5, -0.5), 0.3, u, v)
    pts = UNIT_CIRCLE.sample_points(512)
    for fn in (f, g):
        assert np.abs(np.abs(fn(pts)) - 1.0).max() < 1e-12


def test_finite_set_pair_differs_off_x():
    u = BlaschkeProduct(1.0, (0.2,))
    v = BlaschkeProduct(1.0, (0.6,))
    f, g = finite_set_pair((0.5, -0.5), 0.3, u, v)
    report = verify_equal_modulus(f, g, Circle(0.0, 0.5).sample_points(256))
    assert report.max_deviation > 1e-3


def test_finite_set_pair_maps_inner_infinity_to_a_over_c():
    # B has zeros at +-0.5, so B * u is infinite at 2 and psi(inf) = a / c
    u = BlaschkeProduct(1.0, (0.2,))
    v = BlaschkeProduct(1.0, (0.6,))
    f, _ = finite_set_pair((0.5, -0.5), 0.3, u, v)
    assert abs(f(2.0) - f.map.a / f.map.c) <= 1e-12
    assert abs(f(2.0 + 1e-9) - f(2.0)) < 1e-8


def test_finite_set_pair_rejects_matching_seeds():
    u = BlaschkeProduct(1.0, (0.2,))
    with pytest.raises(UEqualsV):
        finite_set_pair((0.5,), 0.3, u, u.with_constant(1j))


def test_finite_set_pair_rejects_empty_x():
    u = BlaschkeProduct(1.0, (0.2,))
    v = BlaschkeProduct(1.0, (0.6,))
    with pytest.raises(ValueError, match="x_points must not be empty"):
        finite_set_pair((), 0.3, u, v)


@pytest.mark.parametrize(
    "points, alpha",
    [((0.5,), math.nan), ((0.5,), complex(0.1, math.inf)), ((math.nan,), 0.3), ((0.5, 2.0), 0.3)],
)
def test_finite_set_pair_rejects_bad_alpha_and_points(points, alpha):
    u = BlaschkeProduct(1.0, (0.2,))
    v = BlaschkeProduct(1.0, (0.6,))
    with pytest.raises(ValueError, match="open disc"):
        finite_set_pair(points, alpha, u, v)


# --------------------------------------------------------- right-angle pair


def test_right_angle_pair_geometry():
    built = two_circle_right_angle_pair()
    assert built.circle1.radius == pytest.approx(1 / 3)
    assert built.circle1.center == pytest.approx(1 / (3 * SQRT2))
    assert built.circle2.center == pytest.approx(-1 / (3 * SQRT2))
    a = 1j / (3 * SQRT2)
    w = MoebiusMap(1.0, a, 1.0, -a)
    assert w(-a) == pytest.approx(0.0)


@pytest.mark.parametrize("c1", [math.nan, math.inf])
def test_right_angle_pair_rejects_non_finite_parameters(c1):
    with pytest.raises(ValueError, match="finite"):
        two_circle_right_angle_pair(c1, 3.0)


def test_right_angle_pair_equal_modulus_on_both_circles():
    built = two_circle_right_angle_pair()
    for circle in (built.circle1, built.circle2):
        report = verify_equal_modulus(built.f, built.g, circle.sample_points(512, 0.01))
        assert report.max_deviation < 1e-11


def test_right_angle_pair_witness():
    built = two_circle_right_angle_pair()
    assert built.witness_deviation > 1e-3
    assert abs(abs(built.f(built.witness_point)) - abs(built.g(built.witness_point))) == pytest.approx(
        built.witness_deviation
    )


# ------------------------------------------------------------------ strip map


def test_strip_map_values():
    s = StripMap()
    w = s(0.0)
    assert abs(abs(w) - 1.0) < 1e-15  # |i - 1| = |i + 1|
    assert s(0.5j) == pytest.approx(0.0)  # exp(i pi / 2) = i
    assert abs(abs(s(1 + 5j)) - 1.0) < 1e-12


def test_strip_map_unimodular_on_both_edges():
    t = np.linspace(-3.0, 3.0, 500)
    s = StripMap()
    assert np.abs(np.abs(s(t.astype(complex))) - 1.0).max() < 1e-12
    assert np.abs(np.abs(s(1j + t)) - 1.0).max() < 1e-12


def test_strip_map_interior_into_disc():
    rng = np.random.default_rng(14)
    s = StripMap()
    pts = rng.uniform(-2, 2, 200) + 1j * rng.uniform(0.01, 0.99, 200)
    assert np.abs(s(pts)).max() < 1.0


def test_strip_map_pole_is_infinite():
    assert StripMap()(-0.5j) == complex(math.inf, 0.0)
    out = StripMap()(np.array([-0.5j, 0.5j]))
    assert out[0] == complex(math.inf, 0.0)
    assert abs(out[1]) < 1e-15


# -------------------------------------------------------------- inverse points


def test_inverse_points_demo_report():
    report = inverse_points_demo()
    assert report.spread_c1 <= 1e-10
    assert report.spread_c2 <= 1e-10
    assert report.constants_gap > 1e-2
    z = math.sqrt(8.0) / 5.0
    assert inverse_point(z, report.circle1) == pytest.approx(-z)


# ------------------------------------------------------------- expression IO


def test_function_expr_json_roundtrip_all_variants():
    b = BlaschkeProduct(1.0, (0.3,))
    rational = RationalFunction(Polynomial([1.0, 0.5]), Polynomial([1.0]))
    exprs = [
        b,
        rational,
        MoebiusOf(MoebiusMap(1.0, 0.2, 0.0, 1.0), b),
        PowerComposite(3, rational),
        StripMap(),
        ProductExpr((b, rational)),
    ]
    z = 0.3 + 0.2j
    for expr in exprs:
        back = function_expr_from_json(function_expr_to_json(expr))
        assert back(z) == pytest.approx(expr(z))


def test_function_expr_depth_cap():
    b = BlaschkeProduct(1.0, (0.3,))
    expr = b
    m = MoebiusMap(1.0, 0.0, 0.0, 2.0)
    for _ in range(7):
        expr = MoebiusOf(m, expr)
    with pytest.raises(ValueError, match="depth"):
        MoebiusOf(m, expr)


def test_function_expr_unknown_type():
    with pytest.raises(ValueError, match="unknown"):
        function_expr_from_json({"type": "mystery"})
