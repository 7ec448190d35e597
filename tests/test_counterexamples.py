import json
import math
from functools import reduce
from pathlib import Path

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
from discphase.counterexamples import expression_depth
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
    witness = verify_equal_modulus(built.f, built.g, Circle(0.0, 0.45).sample_points(512))
    assert witness.max_deviation > 1e-3
    point = witness.worst_point
    assert abs(abs(built.f(point)) - abs(built.g(point))) == pytest.approx(witness.max_deviation)


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


def test_strip_map_infinite_points_give_the_real_axis_limits():
    # the test run turns a RuntimeWarning into a failure
    assert StripMap()(complex(math.inf, 0.0)) == -1.0
    assert StripMap()(complex(-math.inf, 0.0)) == 1.0
    out = StripMap()(np.array([math.inf, -math.inf, 0.5j], dtype=complex))
    assert out[:2].tolist() == [-1.0, 1.0] and abs(out[2]) < 1e-15


def test_strip_map_far_right_tends_to_minus_one():
    # exp(pi s) overflows past Re s = 226; the value stays finite and unimodular
    # on the edges, as on either side of the switch
    s = StripMap()
    assert s(250.0 + 0.5j) == -1.0
    edges = np.array([225.0, 227.0, 300.0, 1e6]) + np.array([[0.0], [1.0j]])
    assert np.abs(np.abs(s(edges)) - 1.0).max() < 1e-12
    interior = np.array([225.0, 227.0, 300.0]) + 0.25j
    assert np.all(np.abs(s(interior)) <= 1.0)


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
    b = BlaschkeProduct(np.exp(0.3j), (0.1, -0.2j))
    poly = Polynomial([1.0 + 2j, 0.5])
    rational = RationalFunction(Polynomial([1.0, 2.0]), Polynomial([1.0, 0.0, 1.0]))
    exprs = [
        b,
        poly,
        rational,
        MoebiusOf(MoebiusMap(1.0, 0.2, 0.0, 1.0), b),
        PowerComposite(3, rational),
        StripMap(),
        ProductExpr((b, rational, poly)),
    ]
    z = np.array([0.3 + 0.2j, -0.1j, 0.05 - 0.4j])
    for expr in exprs:
        descriptor = function_expr_to_json(expr)
        back = function_expr_from_json(descriptor)
        assert type(back) is type(expr)
        assert function_expr_to_json(back) == descriptor
        assert np.array_equal(back(z), expr(z))
    assert function_expr_from_json(function_expr_to_json(b)).zeros == b.zeros


def test_function_expr_to_json_writes_plain_json():
    rational = RationalFunction(Polynomial([1.0, 2.0]), Polynomial([1.0, 0.0, 1.0]))
    descriptor = function_expr_to_json(PowerComposite(np.int64(2), rational))
    assert json.loads(json.dumps(descriptor)) == descriptor
    assert type(descriptor["k"]) is int
    assert type(descriptor["inner"]["num"]["coeffs"][0][0]) is float


def _readme_descriptors():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    body = "\n".join(line for line in block.splitlines() if not line.lstrip().startswith("//"))
    objs, rest = [], body.strip()
    while rest:
        obj, end = json.JSONDecoder().raw_decode(rest)
        objs.append(obj)
        rest = rest[end:].lstrip()
    return objs


def test_readme_descriptors_decode_and_reencode():
    objs = _readme_descriptors()
    assert [o["type"] for o in objs] == [
        "blaschke", "poly", "rational", "moebius_of", "power_composite", "strip", "product",
    ]
    z = np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.25j])
    for obj in objs:
        expr = function_expr_from_json(obj)
        once = function_expr_to_json(expr)
        again = function_expr_from_json(once)
        assert function_expr_to_json(again) == once
        assert np.allclose(again(z), expr(z), rtol=1e-15, atol=0)
        if obj["type"] == "moebius_of":
            # the map is rescaled so its largest coefficient has modulus 1
            assert once["map"]["b"] == [0.0, -1.0]
        else:
            assert once == obj


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


_POLY = {"type": "poly", "coeffs": [[1, 0]]}
_ONE = {"type": "blaschke", "constant": [1, 0], "zeros": []}
_QUOTIENT = {"type": "rational", "num": _POLY, "den": {"type": "poly", "coeffs": [[2, 0]]}}
_IDENTITY_MAP = {"a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}


def _nest(depth, leaf):
    for _ in range(depth - 1):
        leaf = {"type": "moebius_of", "map": _IDENTITY_MAP, "inner": leaf}
    return leaf


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2], "expected a JSON object, got list"),
        ({"constant": [1, 0]}, "unknown function expression type: None"),
        ({"type": "blaschke", "constant": [1, 0]}, "zeros: missing field"),
        ({"type": "blaschke", "constant": [1, 0], "zeros": 5}, "zeros: expected a list, got int"),
        (
            {"type": "blaschke", "constant": [1, 0], "zeros": [[0.1, 0.2, 0.3]]},
            r"zeros\[0\]: expected an \[re, im\] pair of finite modulus, got \[0.1, 0.2, 0.3\]",
        ),
        ({"type": "blaschke", "constant": [1, True], "zeros": []}, r"constant: expected an \[re, im\]"),
        ({"type": "blaschke", "constant": ["1", 0], "zeros": []}, r"constant: expected an \[re, im\]"),
        ({"type": "poly", "coeffs": [[10**400, 0]]}, r"coeffs\[0\]: expected an \[re, im\]"),
        ({"type": "blaschke", "constant": [1.5e308, 1.5e308], "zeros": []}, r"^constant: expected an \[re, im\]"),
        ({"type": "blaschke", "constant": [1, 0], "zeros": [[1.5e308, 1.5e308]]}, r"^zeros\[0\]: expected"),
        ({"type": "poly", "coeffs": [[1, 0], [1.5e308, 1.5e308]]}, r"^coeffs\[1\]: expected an \[re, im\]"),
        ({"type": "rational", "num": _POLY, "den": _ONE}, "den: expected a 'poly' descriptor, got type 'blaschke'"),
        ({"type": "rational", "num": _ONE, "den": _POLY}, "num: expected a 'poly' descriptor, got type 'blaschke'"),
        (
            {"type": "power_composite", "k": 2, "inner": _POLY},
            "inner: expected a 'rational' descriptor, got type 'poly'",
        ),
        ({"type": "moebius_of", "map": 5, "inner": _ONE}, "map: expected a JSON object, got int"),
        ({"type": "moebius_of", "map": {"a": [1, 0]}, "inner": _ONE}, "map.b: missing field"),
        (
            {"type": "moebius_of", "map": {**_IDENTITY_MAP, "a": [0, 0]}, "inner": _ONE},
            r"map: Moebius map is degenerate",
        ),
        ({"type": "product", "factors": [_ONE, {"type": "mystery"}]}, r"factors\[1\]: unknown"),
        (
            {"type": "product", "factors": [{**_ONE, "constant": [2, 0]}]},
            r"factors\[0\]: constant must be unimodular",
        ),
        ({"type": "product", "factors": []}, "product needs at least one factor"),
        (_nest(9, _ONE), "^composition depth 9 exceeds 8$"),
        # reading stops a level below the cap, long before the recursion limit
        (_nest(300, _ONE), r"^inner(\.inner){8}: composition depth exceeds 8$"),
        ({"type": "power_composite", "k": 2.7, "inner": _QUOTIENT}, "got k = 2.7"),
        ({"type": "power_composite", "k": "2", "inner": _QUOTIENT}, "got k = '2'"),
        ({"type": "power_composite", "k": True, "inner": _QUOTIENT}, "got k = True"),
    ],
    ids=[
        "not-object", "no-type", "no-zeros", "int-zeros", "three-number-zero", "bool-number",
        "string-number", "huge-int", "huge-constant", "huge-zero", "huge-coeff", "den-type",
        "num-type", "power-inner-type", "map-not-object", "map-missing-b", "map-degenerate",
        "nested-unknown", "nested-constant", "empty-product", "depth-9", "depth-300", "float-k",
        "string-k", "bool-k",
    ],
)
def test_function_expr_from_json_names_the_field(obj, message):
    with pytest.raises(ValueError, match=message):
        function_expr_from_json(obj)


def test_function_expr_from_json_reads_the_deepest_compositions():
    # 7 Moebius maps around a rational function, and 6 around a power composite
    for depth, leaf in ((8, _QUOTIENT), (7, {"type": "power_composite", "k": 2, "inner": _QUOTIENT})):
        expr = function_expr_from_json(_nest(depth, leaf))
        assert expression_depth(expr) == 8
        assert expr(0.5) == pytest.approx(0.5)


_HALF_TURN = RationalFunction(Polynomial([-1j, 1.0]), Polynomial([1j, 1.0]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PowerComposite(0, _HALF_TURN), "power must be >= 1"),
        (lambda: PowerComposite(2.5, _HALF_TURN), "power must be >= 1 and an integer, got k = 2.5"),
        (lambda: PowerComposite(True, _HALF_TURN), "power must be >= 1 and an integer, got k = True"),
        (lambda: PowerComposite(2**53 + 1, _HALF_TURN), r"power must be at most 2\^53"),
        (lambda: PowerComposite(10**400, _HALF_TURN), r"power must be at most 2\^53"),
        (lambda: ProductExpr(()), "product needs at least one factor"),
        (
            lambda: reduce(lambda e, _: ProductExpr((e,)), range(8), BlaschkeProduct(1.0, ())),
            "composition depth 9 exceeds 8",
        ),
        (lambda: rational_angle_pair(3, -1.0, 2.0), "c1 and c2 must be positive"),
    ],
    ids=[
        "power", "power-float", "power-bool", "power-above-2-53", "power-huge", "empty-product",
        "product-depth", "angle-pair-sign",
    ],
)
def test_counterexample_input_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()
