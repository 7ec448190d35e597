import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discphase import (
    Circle,
    CircleNotInsideDisc,
    IdenticalCircles,
    Line,
    MoebiusMap,
    PairKind,
    PresumedIrrational,
    RationalMultipleOfPi,
    circle_as_automorphism_image,
    classify_angle,
    classify_pair,
    disc_automorphism,
    inverse_point,
    map_circle,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- Moebius maps


def test_disc_automorphism_reduces_to_negation():
    m = disc_automorphism(1.0, 0.0)
    assert m(0.3) == pytest.approx(-0.3)


def test_disc_automorphism_sends_alpha_to_zero():
    m = disc_automorphism(1.0, 0.5)
    assert abs(m(0.5)) < 1e-15


def test_disc_automorphism_preserves_boundary():
    m = disc_automorphism(1j, 0.5)
    assert abs(abs(m(np.exp(1j * np.pi / 3))) - 1.0) < 1e-12


def test_disc_automorphism_rejects_bad_arguments():
    with pytest.raises(ValueError):
        disc_automorphism(1.0, 1.2)
    with pytest.raises(ValueError):
        disc_automorphism(0.5, 0.1)


@pytest.mark.parametrize(
    "omega, alpha",
    [(math.nan, 0.1), (complex(1.0, math.nan), 0.1), (1.0, math.nan), (1.0, math.inf)],
)
def test_disc_automorphism_rejects_non_finite_arguments(omega, alpha):
    with pytest.raises(ValueError):
        disc_automorphism(omega, alpha)


@pytest.mark.parametrize(
    "center, radius",
    [(math.nan, 0.5), (complex(0.0, math.inf), 0.5), (0.0, math.inf), (0.0, math.nan)],
)
def test_circle_rejects_non_finite_center_and_radius(center, radius):
    with pytest.raises(ValueError):
        Circle(center, radius)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 4096])
@pytest.mark.parametrize("center, radius", [(0.0, 1.0), (0.1 - 0.2j, 0.35)])
def test_sample_points_match_the_exp_formula_bit_for_bit(n, center, radius):
    circle = Circle(center, radius)
    want = circle.center + circle.radius * np.exp(1j * (0.0 + 2.0 * np.pi * np.arange(n) / n))
    for _ in range(2):  # built, then from the cache
        got = circle.sample_points(n)
        assert got.tobytes() == want.tobytes()


def test_sample_points_are_a_fresh_writable_array():
    first = Circle(0.0, 1.0).sample_points(32)
    first[:] = 7.0
    again = Circle(0.0, 1.0).sample_points(32)
    assert again.flags.writeable and again[0] == 1.0 and again is not first
    assert np.abs(np.abs(again) - 1.0).max() < 1e-15


def test_moebius_apply_identity():
    m = MoebiusMap(1, 0, 0, 1)
    assert m(0.7j) == pytest.approx(0.7j)


def test_cayley_type_map_kills_numerator():
    a = 1j / (3 * SQRT2)
    m = MoebiusMap(1.0, a, 1.0, -a)  # (z + a) / (z - a)
    assert m(-a) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ((0.0, 0.0, 0.0, 0.0), "all Moebius coefficients are zero"),
        ((1.0, 2.0, 2.0, 4.0), "degenerate"),
        ((0.0, 1.0, 0.0, 0.0), "degenerate"),
        ((1.0, 1.0, 1.0, 1.0 + 1e-15), "degenerate"),
        ((math.inf, 0.0, 0.0, 1.0), "coefficient a = .* is not finite"),
        ((1.0, 0.0, complex(0.0, math.nan), 1.0), "coefficient c = .* is not finite"),
        ((1.5e308 + 1.5e308j, 0.0, 0.0, 1.0), "coefficient's modulus overflows"),
    ],
    ids=["zero", "degenerate", "constant", "near-degenerate", "infinite", "nan", "overflowing"],
)
def test_moebius_rejects_zero_degenerate_and_non_finite_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=message):
        MoebiusMap(*coeffs)


@pytest.mark.parametrize(
    "coeffs, z",
    [((1e15, 0.0, 0.0, 1.0), 1e-16), ((1.0, 0.0, 0.0, 1e-15), 1e-16),
     ((1e308 + 1e308j, 0.0, 0.0, 1.0), 1e-300)],
    ids=["dilation", "small-d", "huge-a"],
)
def test_moebius_accepts_extreme_dilations(coeffs, z):
    a, _, _, d = coeffs
    assert MoebiusMap(*coeffs)(z) == pytest.approx(a * z / d, rel=1e-12)


def test_moebius_pole_maps_to_infinity():
    m = MoebiusMap(1.0, 0.0, 1.0, -0.5)  # pole at z = 0.5
    assert m(0.5) == complex(math.inf, 0.0)
    out = m(np.array([0.5 + 2e-16, 0.25]))  # |den| within 1e-15 relative
    assert out[0] == complex(math.inf, 0.0)
    assert out[1] == pytest.approx(-1.0)


def test_moebius_map_acts_on_the_sphere():
    m = MoebiusMap(2.0, 1.0, 1.0, -0.5)
    assert m(complex(math.inf, 0.0)) == pytest.approx(m.a / m.c, abs=1e-15)
    out = m(np.array([complex(math.inf, 0.0), 0.5, 1.0]))
    assert out[0] == pytest.approx(m.a / m.c, abs=1e-15)
    assert out[1] == complex(math.inf, 0.0)
    assert out[2] == pytest.approx(6.0)
    affine = MoebiusMap(2.0, 1.0, 0.0, 1.0)
    assert affine(complex(math.inf, 0.0)) == complex(math.inf, 0.0)
    assert np.isinf(affine(np.array([complex(0.0, -math.inf)]))).all()


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False),
    st.floats(0.0, 2.0 * math.pi),
    st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False),
)
def test_automorphism_maps_disc_into_disc(alpha, phase, z):
    m = disc_automorphism(complex(math.cos(phase), math.sin(phase)), alpha)
    assert abs(m(z)) < 1.0 + 1e-12


# ----------------------------------------------------------------- map_circle


def test_negation_fixes_centred_circle():
    image = map_circle(disc_automorphism(1.0, 0.0), Circle(0.0, 0.5))
    assert isinstance(image, Circle)
    assert image.center == pytest.approx(0.0)
    assert image.radius == pytest.approx(0.5)


def test_right_angle_circle_straightens_to_line_through_origin():
    a = 1j / (3 * SQRT2)
    m = MoebiusMap(1.0, a, 1.0, -a)
    image = map_circle(m, Circle(1.0 / (3 * SQRT2), 1.0 / 3.0))
    assert isinstance(image, Line)
    assert image.distance_to(0.0) < 1e-12


def test_map_circle_point_mapping_oracle():
    # independent check: 64 directly mapped points satisfy the image equation
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        omega = np.exp(2j * np.pi * rng.uniform())
        m = disc_automorphism(complex(omega), complex(alpha))
        r = rng.uniform(0.2, 0.8)
        image = map_circle(m, Circle(0.0, r))
        assert isinstance(image, Circle)
        assert abs(image.center) + image.radius < 1.0 + 1e-12
        pts = m(r * np.exp(2j * np.pi * np.arange(64) / 64))
        assert np.abs(np.abs(pts - image.center) - image.radius).max() < 1e-10


# ------------------------------------------- circle as an automorphism image


def test_automorphism_image_centred_circle():
    omega, alpha, r = circle_as_automorphism_image(Circle(0.0, 0.4))
    assert omega == pytest.approx(1.0)
    assert alpha == pytest.approx(0.0)
    assert r == pytest.approx(0.4)


def test_automorphism_image_forward_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        center = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        radius = rng.uniform(0.05, 0.95 - abs(center) - 0.05)
        c = Circle(complex(center), radius)
        omega, alpha, r = circle_as_automorphism_image(c)
        assert 0.0 < r < 1.0
        phi = disc_automorphism(omega, alpha)
        mapped = phi(r * np.exp(2j * np.pi * np.arange(64) / 64))
        assert np.abs(np.abs(mapped - c.center) - c.radius).max() < 1e-10


def test_automorphism_image_rejects_outside_circle():
    with pytest.raises(CircleNotInsideDisc):
        circle_as_automorphism_image(Circle(0.9, 0.2))


# ------------------------------------------------------------- classification


def test_classify_concentric():
    cfg = classify_pair(Circle(0.0, 0.8), Circle(0.0, 0.2))
    assert cfg.kind is PairKind.INTERNALLY_DISJOINT


def test_classify_inverse_point_circles():
    cfg = classify_pair(Circle(3 / 5, 1 / 5), Circle(-3 / 5, 1 / 5))
    assert cfg.kind is PairKind.EXTERNALLY_DISJOINT


def test_classify_right_angle_pair():
    cfg = classify_pair(
        Circle(1 / (3 * SQRT2), 1 / 3), Circle(-1 / (3 * SQRT2), 1 / 3)
    )
    assert cfg.kind is PairKind.INTERSECTING
    assert cfg.angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_classify_tangencies():
    ext = classify_pair(Circle(-0.3, 0.2), Circle(0.2, 0.3))
    assert ext.kind is PairKind.EXTERNALLY_TANGENT
    internal = classify_pair(Circle(0.0, 0.5), Circle(0.2, 0.3))
    assert internal.kind is PairKind.INTERNALLY_TANGENT


def test_classify_identical_circles():
    with pytest.raises(IdenticalCircles):
        classify_pair(Circle(0.1, 0.3), Circle(0.1, 0.3))


def test_intersection_angle_orthogonal_by_construction():
    # d^2 = r1^2 + r2^2 forces a right angle
    r1, r2 = 0.3, 0.25
    d = math.hypot(r1, r2)
    c1 = Circle(0.1, r1)
    c2 = Circle(0.1 + d * np.exp(1j * np.pi / 5), r2)
    assert classify_pair(c1, c2).angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_intersection_angle_monotone_to_zero_as_circles_separate():
    # numeric sweep on the obtuse branch (d past the orthogonal distance
    # sqrt(r1^2 + r2^2)): as d -> r1 + r2 the folded angle decreases to 0
    r1, r2 = 0.3, 0.2
    angles = []
    for d in np.linspace(0.37, 0.4999, 40):
        angles.append(classify_pair(Circle(0.0, r1), Circle(d, r2)).angle)
    assert all(a2 < a1 for a1, a2 in zip(angles, angles[1:]))
    assert angles[-1] < 0.05


def test_intersection_angle_requires_intersection():
    assert classify_pair(Circle(0.0, 0.8), Circle(0.0, 0.2)).angle is None


# ------------------------------------------------------------- angle classes


def test_classify_angle_half_pi():
    ac = classify_angle(math.pi / 2)
    assert isinstance(ac, RationalMultipleOfPi)
    assert (ac.p, ac.q) == (1, 2)


def test_classify_angle_presumed_irrational_with_bruteforce_oracle():
    # the closest fraction can be a semiconvergent: for 2.25 it is q = 60,
    # not the last convergent q = 7
    for theta in (math.pi * (SQRT2 - 1.0), 2.25, 1.85, 0.85, 1.46):
        x = theta / math.pi
        # oracle: no fraction with denominator <= 64 approximates within 1e-9
        best = min(abs(x - round(x * q) / q) for q in range(1, 65))
        assert best > 1e-9
        ac = classify_angle(theta)
        assert isinstance(ac, PresumedIrrational)
        assert ac.best_residual == best, theta


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Line(0.0, 0.0), "line direction must be nonzero"),
        (lambda: Circle(0.0, 0.0), "radius must be positive"),
    ],
    ids=["line-direction", "circle-radius"],
)
def test_geometry_input_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_classify_angle_near_rational_within_tolerance():
    ac = classify_angle(math.pi * (1.0 / 3.0 + 1e-15))
    assert isinstance(ac, RationalMultipleOfPi)
    assert (ac.p, ac.q) == (1, 3)


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 5), (3, 7), (5, 64), (1, 1)])
def test_classify_angle_rational_soundness(p, q):
    ac = classify_angle(math.pi * p / q)
    assert isinstance(ac, RationalMultipleOfPi)
    assert math.gcd(ac.p, ac.q) == 1
    assert abs(math.pi * p / q * ac.q - ac.p * math.pi) <= 1e-9 * ac.q * math.pi


def test_classify_angle_largest_denominator_is_64():
    ac = classify_angle(math.pi / 64)
    assert isinstance(ac, RationalMultipleOfPi) and ac.q == 64
    assert isinstance(classify_angle(math.pi / 65), PresumedIrrational)


def test_classify_angle_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_angle(0.0)
    with pytest.raises(ValueError):
        classify_angle(4.0)


# -------------------------------------------------------------- inverse points


def test_inverse_point_shared_by_mirrored_circles():
    z = math.sqrt(8.0) / 5.0
    assert inverse_point(z, Circle(3 / 5, 1 / 5)) == pytest.approx(-z)
    assert inverse_point(z, Circle(-3 / 5, 1 / 5)) == pytest.approx(-z)


def test_inverse_point_fixes_circle_points():
    c = Circle(0.2 + 0.1j, 0.35)
    for theta in (0.0, 1.1, 2.7, 4.4):
        z = c.point(theta)
        assert inverse_point(z, c) == pytest.approx(z)


def test_inverse_point_center_gives_infinity():
    # the same infinity a Moebius map returns at its pole
    w = inverse_point(0.3, Circle(0.3, 0.1))
    assert type(w) is complex
    assert w == complex(math.inf, 0.0)
    assert w == MoebiusMap(1.0, 0.0, 1.0, -0.3)(0.3)


def test_inverse_point_involution_and_defining_relation():
    rng = np.random.default_rng(23)
    c = Circle(0.1 - 0.2j, 0.4)
    for _ in range(50):
        z = complex(rng.standard_normal(), rng.standard_normal())
        if abs(z - c.center) < 1e-3:
            continue
        w = inverse_point(z, c)
        assert inverse_point(w, c) == pytest.approx(z, abs=1e-10)
        relation = (z - c.center) * (w - c.center).conjugate()
        assert relation == pytest.approx(c.radius**2, abs=1e-10)


# -------------------------------------------------- conformal transport check


def test_classification_is_conformally_invariant():
    rng = np.random.default_rng(41)
    pairs = [
        (Circle(0.0, 0.6), Circle(0.05, 0.2)),  # internally disjoint
        (Circle(-0.4, 0.15), Circle(0.4, 0.2)),  # externally disjoint
        (Circle(0.0, 0.5), Circle(0.2, 0.3)),  # internally tangent
        (Circle(-0.3, 0.2), Circle(0.2, 0.3)),  # externally tangent
        (Circle(1 / (3 * SQRT2), 1 / 3), Circle(-1 / (3 * SQRT2), 1 / 3)),
    ]
    for c1, c2 in pairs:
        reference = classify_pair(c1, c2)
        for _ in range(20):
            alpha = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            omega = np.exp(2j * np.pi * rng.uniform())
            m = disc_automorphism(complex(omega), complex(alpha))
            mapped = classify_pair(map_circle(m, c1), map_circle(m, c2))
            assert mapped.kind is reference.kind
            if reference.kind is PairKind.INTERSECTING:
                assert mapped.angle == pytest.approx(reference.angle, abs=1e-9)
