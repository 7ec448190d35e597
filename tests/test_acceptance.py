"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; failures surface through the
assertions with the measured values.
"""

import math
import time

import numpy as np

from discphase import (
    BlaschkeProduct,
    Circle,
    OuterFunction,
    PairKind,
    Polynomial,
    RationalFunction,
    StripMap,
    UNIT_CIRCLE,
    align_constant,
    boundary_modulus_of,
    certify_finite_points,
    classify_pair,
    disc_automorphism,
    finite_set_pair,
    inverse_points_demo,
    map_circle,
    modulus_equation,
    parametrize_pair,
    perpendicular_lines_pair,
    rational_angle_pair,
    retrieve_two_circles,
    sample_modulus,
    two_circle_right_angle_pair,
    verify_equal_modulus,
)
from conftest import outer_product_fn, random_blaschke, random_outer_coeffs

SQRT2 = math.sqrt(2.0)


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} [PASS]: {text}")


# --------------------------------------------------------------- criterion 1


def test_acceptance_1_phase_retrieval_roundtrip():
    rng = np.random.default_rng(1001)
    grid = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(
        2j * np.pi * rng.uniform(size=100)
    )
    worst_err = 0.0
    worst_time = 0.0
    for _ in range(100):
        degree = int(rng.integers(0, 6))
        b = random_blaschke(rng, degree, max_modulus=0.85, min_separation=0.05)
        coeffs = random_outer_coeffs(rng, int(rng.integers(1, 4)), max_modulus=0.5)
        outer = outer_product_fn(coeffs)

        def f(z, b=b, outer=outer):
            return b(z) * outer(z)

        data_t = sample_modulus(f, UNIT_CIRCLE, 256)
        data_r = sample_modulus(f, Circle(0.0, 0.5), 256)
        start = time.perf_counter()
        result = retrieve_two_circles(data_t, data_r)
        elapsed = time.perf_counter() - start
        fv = f(grid)
        gv = result(grid)
        lam = align_constant(fv, gv)
        err = float(np.abs(fv - lam * gv).max())
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
        assert err <= 1e-6, f"roundtrip error {err:.3e} at degree {degree}"
        assert elapsed < 1.0, f"run took {elapsed:.2f} s"
        assert result.degree_used == degree
    _report(
        1,
        f"100 roundtrips recovered to {worst_err:.2e} <= 1e-6 on 0.9-disc grid "
        f"(slowest run {worst_time * 1e3:.0f} ms < 1 s)",
    )


# --------------------------------------------------------------- criterion 2


def _independent_top_coefficient_residual(b1, b2, r):
    # rebuild the cross products directly from the factor convolutions
    def parts(b):
        num = np.array([1.0 + 0j])
        den = np.array([1.0 + 0j])
        for a in b.zeros:
            num = np.convolve(num, np.array([-a, 1.0]))
            num = np.convolve(num, np.array([r * r, -a.conjugate()]))
            den = np.convolve(den, np.array([1.0, -a.conjugate()]))
            den = np.convolve(den, np.array([-r * r * a, 1.0]))
        return num, den

    p1, q1 = parts(b1)
    p2, q2 = parts(b2)
    lhs = np.convolve(p1, q2)
    rhs = np.convolve(p2, q1)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    return abs(lhs[-1] - rhs[-1]) / scale


def _grid_sign_changes(b1, b2, r, n=4096):
    theta = 2 * np.pi * np.arange(n) / n
    gap = np.abs(b1(r * np.exp(1j * theta))) - np.abs(b2(r * np.exp(1j * theta)))
    signs = np.sign(gap)
    signs = signs[signs != 0]
    if len(signs) == 0:
        return 0
    return int(np.count_nonzero(signs != np.roll(signs, 1)))


def test_acceptance_2_degree_bound():
    rng = np.random.default_rng(2002)
    radii = [0.3, 0.5, 0.8]
    worst_residual = 0.0
    for trial in range(200):
        m_deg = int(rng.integers(1, 5))
        n_deg = int(rng.integers(1, 5))
        b1 = random_blaschke(rng, m_deg)
        b2 = random_blaschke(rng, n_deg)
        r = radii[trial % 3]
        bound = 2 * m_deg + 2 * n_deg - 1
        d = modulus_equation(b1, b2, r).poly
        assert d.degree <= bound
        residual = _independent_top_coefficient_residual(b1, b2, r)
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-10
        assert _grid_sign_changes(b1, b2, r) <= bound
    _report(
        2,
        "200 random pairs: deg(difference poly) <= 2M+2N-1, top-coefficient "
        f"residual <= {worst_residual:.2e} (<= 1e-10), grid equality points "
        "within the bound",
    )


# --------------------------------------------------------------- criterion 3


def test_acceptance_3_certificate_soundness_and_completeness():
    rng = np.random.default_rng(3003)
    for _ in range(50):
        m_deg = int(rng.integers(1, 5))
        b1 = random_blaschke(rng, m_deg)
        lam = complex(np.exp(2j * np.pi * rng.uniform()))
        b2 = b1.with_constant(lam * b1.constant)
        k = 2 * m_deg + 2 * m_deg  # exactly 2M + 2N points
        pts = 0.5 * np.exp(2j * np.pi * np.arange(k) / k)
        cert = certify_finite_points(b1, b2, pts)
        assert cert.equal_on_circle, "completeness failed for a rotated product"
    for _ in range(200):
        b1 = random_blaschke(rng, int(rng.integers(1, 5)))
        b2 = random_blaschke(rng, int(rng.integers(1, 5)))
        pts = 0.5 * np.exp(2j * np.pi * np.arange(40) / 40)
        cert = certify_finite_points(b1, b2, pts)
        assert not cert.equal_on_circle, "soundness failed for distinct products"
    _report(
        3,
        "certificate fires for all 50 rotated pairs at exactly 2M+2N points "
        "and never for 200 random distinct pairs",
    )


# --------------------------------------------------------------- criterion 4


def test_acceptance_4_counterexample_residuals():
    worst_set = 0.0
    worst_witness = np.inf
    witness_grid = Circle(0.0, 0.5).sample_points(512)

    def check_pair(f, g, sets, witness_points=witness_grid):
        nonlocal worst_set, worst_witness
        for pts in sets:
            for fn in (f, g):
                dev = float(np.abs(np.abs(np.asarray(fn(pts), dtype=complex)) - 1.0).max())
                worst_set = max(worst_set, dev)
                assert dev <= 1e-11
        witness = verify_equal_modulus(f, g, witness_points).max_deviation
        worst_witness = min(worst_witness, witness)
        assert witness >= 1e-3

    # classic perpendicular pair on its two segments
    f, g = perpendicular_lines_pair()
    check_pair(
        f, g,
        [np.linspace(-0.9, 0.9, 500), 1j * np.linspace(-0.9, 0.9, 500)],
    )

    # general rational-angle pairs, k up to 6
    for k in range(2, 7):
        fk, gk = rational_angle_pair(k, 2.0, 3.0)
        sets = [np.exp(1j * np.pi * m / k) * np.linspace(-0.9, 0.9, 500) for m in range(k)]
        check_pair(fk, gk, sets)

    # finite-set pair: unimodular on the unit circle, equal on X
    u = BlaschkeProduct(1.0, (0.2,))
    v = BlaschkeProduct(1.0, (0.6,))
    xs = (0.5, -0.5)
    ff, gg = finite_set_pair(xs, 0.3, u, v)
    check_pair(ff, gg, [UNIT_CIRCLE.sample_points(512)])
    for x in xs:
        assert abs(ff(x) - 0.3) < 1e-13 and abs(gg(x) - 0.3) < 1e-13

    # right-angle circle pair: |f| = |g| on both circles
    built = two_circle_right_angle_pair()
    for circle in (built.circle1, built.circle2):
        pts = circle.sample_points(512)
        dev = float(np.abs(np.abs(built.f(pts)) - np.abs(built.g(pts))).max())
        worst_set = max(worst_set, dev)
        assert dev <= 1e-11
    witness = verify_equal_modulus(built.f, built.g, Circle(0.0, 0.45).sample_points(512))
    assert witness.max_deviation >= 1e-3
    worst_witness = min(worst_witness, witness.max_deviation)

    # strip map: unimodular on both horizontal edges
    strip = StripMap()
    for edge in (np.linspace(-3, 3, 500).astype(complex), 1j + np.linspace(-3, 3, 500)):
        dev = float(np.abs(np.abs(strip(edge)) - 1.0).max())
        worst_set = max(worst_set, dev)
        assert dev <= 1e-11

    _report(
        4,
        f"all counterexample families: advertised-set residual <= {worst_set:.2e} "
        f"(<= 1e-11, >= 500 samples), every pair separated by a witness >= "
        f"{worst_witness:.2e} (>= 1e-3)",
    )


# --------------------------------------------------------------- criterion 5


def test_acceptance_5_outer_quadrature():
    f = lambda z: 1 + z / 2  # noqa: E731
    u = OuterFunction(boundary_modulus_of(f, 1024))
    rng = np.random.default_rng(5005)
    pts = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    err1024 = float(np.abs(u(pts) - f(pts)).max())
    assert err1024 <= 1e-8

    ring = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
    u256 = OuterFunction(boundary_modulus_of(f, 256))
    u512 = OuterFunction(boundary_modulus_of(f, 512))
    err256 = float(np.abs(u256(ring) - f(ring)).max())
    err512 = float(np.abs(u512(ring) - f(ring)).max())
    assert err256 >= 100.0 * err512, f"ratio only {err256 / err512:.1f}"
    _report(
        5,
        f"outer quadrature: n=1024 error {err1024:.2e} <= 1e-8 at 100 points; "
        f"doubling 256->512 shrinks the 0.9-ring error {err256 / err512:.0f}x "
        "(>= 100x)",
    )


# --------------------------------------------------------------- criterion 6


def test_acceptance_6_inverse_points_non_example():
    report = inverse_points_demo(n_samples=512)
    assert report.spread_c1 <= 1e-10
    assert report.spread_c2 <= 1e-10
    assert report.constants_gap > 1e-2
    _report(
        6,
        f"inverse-point quotient constant on each circle (spreads "
        f"{report.spread_c1:.1e}, {report.spread_c2:.1e} <= 1e-10) with "
        f"constants {report.constant_on_c1:.4f} vs {report.constant_on_c2:.4f} "
        f"differing by {report.constants_gap:.2f} > 1e-2",
    )


# --------------------------------------------------------------- criterion 7


def test_acceptance_7_parametrization_identity():
    rng = np.random.default_rng(7007)
    r = 0.5
    worst = 0.0
    for _ in range(50):
        inner1 = random_blaschke(rng, int(rng.integers(1, 4)), max_modulus=0.8)
        inner2 = random_blaschke(rng, int(rng.integers(1, 4)), max_modulus=0.8)
        h = Polynomial(
            [1.0, complex(0.3 * rng.standard_normal(), 0.3 * rng.standard_normal())]
        )

        def scaled_parts(b):
            num, den = Polynomial([complex(b.constant)]), Polynomial([1.0])
            for a in b.zeros:
                num = num * Polynomial([-a, 1.0 / r])
                den = den * Polynomial([1.0, -np.conj(a) / r])
            return num, den

        n1, d1 = scaled_parts(inner1)
        n2, d2 = scaled_parts(inner2)
        f = RationalFunction(n2 * h * d1, d2 * d1)
        g = RationalFunction(n1 * h * d2, d1 * d2)
        b1, b2 = parametrize_pair(f, g, r)
        grid = 0.5 * r * np.exp(2j * np.pi * np.arange(64) / 64)
        lhs = b1(grid / r) * f(grid)
        rhs = b2(grid / r) * g(grid)
        rel = float(np.abs(lhs - rhs).max() / np.abs(lhs).max())
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report(
        7,
        f"50 forward-constructed equal-modulus pairs satisfy the scaled-product "
        f"identity to relative residual {worst:.2e} <= 1e-9",
    )


# --------------------------------------------------------------- criterion 8


def test_acceptance_8_classifier_conformal_invariance():
    rng = np.random.default_rng(8008)
    pairs = [
        (Circle(0.0, 0.6), Circle(0.05, 0.2)),
        (Circle(-0.4, 0.15), Circle(0.4, 0.2)),
        (Circle(0.0, 0.5), Circle(0.2, 0.3)),
        (Circle(-0.3, 0.2), Circle(0.2, 0.3)),
        (Circle(1 / (3 * SQRT2), 1 / 3), Circle(-1 / (3 * SQRT2), 1 / 3)),
    ]
    expected = [
        PairKind.INTERNALLY_DISJOINT,
        PairKind.EXTERNALLY_DISJOINT,
        PairKind.INTERNALLY_TANGENT,
        PairKind.EXTERNALLY_TANGENT,
        PairKind.INTERSECTING,
    ]
    right_angle = classify_pair(*pairs[4])
    assert abs(right_angle.angle - math.pi / 2) <= 1e-12
    for (c1, c2), kind in zip(pairs, expected):
        reference = classify_pair(c1, c2)
        assert reference.kind is kind
        for _ in range(100):
            alpha = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            omega = np.exp(2j * np.pi * rng.uniform())
            m = disc_automorphism(complex(omega), complex(alpha))
            mapped = classify_pair(map_circle(m, c1), map_circle(m, c2))
            assert mapped.kind is reference.kind
            if reference.kind is PairKind.INTERSECTING:
                assert abs(mapped.angle - reference.angle) <= 1e-9
    _report(
        8,
        "5 configurations x 100 automorphisms: variants preserved, crossing "
        "angles stable to 1e-9, right-angle pair at pi/2 within 1e-12",
    )
