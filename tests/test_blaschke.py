import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discphase import (
    BlaschkeProduct,
    Circle,
    DegenerateAlignment,
    EvaluationAtPole,
    ExplicitPoints,
    ModulusSamples,
    RationalFunction,
    UNIT_CIRCLE,
    align_constant,
    boundary_modulus_of,
    certify_finite_points,
    equal_up_to_unimodular,
    modulus_samples,
    perpendicular_lines_pair,
    sample_modulus,
)
from discphase.blaschke import complex_points, dedup_indices, read_csv, write_csv
from conftest import random_blaschke


# ----------------------------------------------------------------- evaluation


def test_single_zero_at_origin_is_identity():
    b = BlaschkeProduct(1.0, (0.0,))
    assert b(0.7j) == pytest.approx(0.7j)


def test_zero_of_factor():
    assert BlaschkeProduct(1.0, (0.3,))(0.3) == pytest.approx(0.0)


def test_boundary_unimodularity():
    b = BlaschkeProduct(1.0, (0.3, 0.5j))
    assert abs(abs(b(np.exp(1.1j))) - 1.0) < 1e-12


def test_reflected_pole_is_infinite():
    b = BlaschkeProduct(1.0, (0.5, 0.3j))
    assert b(2.0) == complex(math.inf, 0.0)  # 1 / conj(0.5)
    out = b(np.array([0.1, 1.0 / (0.3j).conjugate() + 1e-15]))
    assert np.isfinite(out[0])
    assert out[1] == complex(math.inf, 0.0)


def test_construction_rejects_boundary_zeros_and_bad_constant():
    with pytest.raises(ValueError):
        BlaschkeProduct(1.0, (1.0 - 1e-14,))
    with pytest.raises(ValueError):
        BlaschkeProduct(0.7, (0.3,))


@pytest.mark.parametrize(
    "constant, zeros",
    [
        (math.nan, (0.3,)),
        (complex(1.0, math.nan), ()),
        (1.0, (math.nan,)),
        (1.0, (complex(0.1, math.inf),)),
        (1.0, (0.2, math.inf)),
        (1.0, (complex(math.nan, 0.0), 0.2)),
    ],
)
def test_construction_rejects_non_finite_constant_and_zeros(constant, zeros):
    # a non-finite zero is named as such, not as one too close to the circle
    zeros_finite = np.isfinite(np.asarray(zeros, dtype=complex)).all()
    with pytest.raises(ValueError, match=None if zeros_finite else "is not finite"):
        BlaschkeProduct(constant, zeros)


@pytest.mark.parametrize("phase_offset", [math.nan, math.inf])
def test_circle_grid_rejects_non_finite_phase_offset(phase_offset):
    with pytest.raises(ValueError, match="phase_offset"):
        Circle(0.0, 0.5).sample_points(8, phase_offset)


def test_maximum_modulus_bound():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        b = random_blaschke(rng, int(rng.integers(1, 5)), max_modulus=0.9)
        z = 0.99 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert abs(b(complex(z))) < 1.0


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(max_magnitude=0.999, allow_infinity=False, allow_nan=False))
def test_modulus_below_one_inside_disc(z):
    b = BlaschkeProduct(np.exp(0.4j), (0.3, -0.4j, 0.2 + 0.2j))
    assert abs(b(z)) < 1.0 + 1e-12


# ------------------------------------------------------------------- sampling


def test_modulus_samples_constant_function():
    samples = modulus_samples(lambda z: 2.0 * np.ones(np.shape(z)), UNIT_CIRCLE.sample_points(16))
    assert np.allclose(samples.moduli, 2.0)


def test_modulus_samples_identity_on_inner_circle():
    b = BlaschkeProduct(1.0, (0.0,))
    samples = modulus_samples(b, Circle(0.0, 0.5).sample_points(8))
    assert np.abs(samples.moduli - 0.5).max() < 1e-15


def test_modulus_samples_unimodular_on_boundary():
    rng = np.random.default_rng(7)
    b = random_blaschke(rng, 4)
    samples = modulus_samples(b, UNIT_CIRCLE.sample_points(64))
    assert np.abs(samples.moduli - 1.0).max() < 1e-12


def test_classic_pair_unimodular_on_segments():
    f, _ = perpendicular_lines_pair()
    samples = modulus_samples(f, np.linspace(-0.9, 0.9, 101))
    assert np.abs(samples.moduli - 1.0).max() < 1e-12


def test_modulus_samples_reports_offending_index():
    b = BlaschkeProduct(1.0, (0.5,))
    points = np.array([0.1, 2.0, 0.3])  # 2.0 is the reflected pole
    with pytest.raises(EvaluationAtPole, match="index 1"):
        modulus_samples(b, points)


def test_modulus_samples_rejects_non_finite_modulus():
    f = RationalFunction.from_zeros_poles([], [0.5])  # 1 / (z - 0.5) is inf at 0.5
    with pytest.raises(EvaluationAtPole, match=r"not finite at point index 0 \(\(0\.5\+0j\)\)"):
        modulus_samples(f, Circle(0.0, 0.5).sample_points(8))
    # the other two samplers go through modulus_samples and name the same cause
    with pytest.raises(EvaluationAtPole, match=r"not finite at point index 0 \(\(0\.5\+0j\)\)"):
        sample_modulus(f, Circle(0.0, 0.5), 8)
    g = RationalFunction.from_zeros_poles([], [1.0])
    with pytest.raises(EvaluationAtPole, match=r"not finite at point index 0 \(\(1\+0j\)\)"):
        boundary_modulus_of(g, 16)


def test_point_sets():
    explicit = ExplicitPoints((0.1, 0.1, 0.2))
    assert len(explicit.points()) == 2
    grid = Circle(0.0, 0.5).sample_points(4, phase_offset=np.pi / 4)
    assert grid[0] == pytest.approx(0.5 * np.exp(1j * np.pi / 4))


# ------------------------------------------------------------- deduplication

DEDUP_TOL = 1e-12  # the rule's fixed distance, for building test inputs


def greedy_dedup(points):
    """The former O(n^2) loop, kept as the oracle for dedup_indices."""
    kept: list[complex] = []
    idx: list[int] = []
    for i, p in enumerate(points):
        if all(abs(p - q) > DEDUP_TOL for q in kept):
            kept.append(p)
            idx.append(i)
    return idx


@st.composite
def crowded_point_lists(draw):
    """Exact copies, near-duplicate chains and coarse-lattice points near one origin.

    Origins far out put cell indices past 2**53 and, at 1e297, past the
    float range, where every step below collapses onto exact copies.
    """
    coord = st.floats(-1.0, 1.0)
    scale = draw(st.sampled_from([1.0, 1e5, 1e297]))
    origin = scale * complex(draw(coord), draw(coord))
    step = draw(st.sampled_from([0.3, 0.8, 2.0])) * DEDUP_TOL
    turn = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    chain = [origin + k * step * turn for k in range(12)]
    mesh = draw(st.sampled_from([0.5, 0.7, 1.0, 3.0])) * DEDUP_TOL
    lattice = [origin + complex(a, b) * mesh for a in range(-2, 3) for b in range(-2, 3)]
    pool = chain + lattice
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return [pool[i] for i in picks]


@given(crowded_point_lists())
@settings(max_examples=300, deadline=None)
def test_dedup_indices_matches_greedy_loop(points):
    got = dedup_indices(np.array(points, dtype=complex))
    assert got.tolist() == greedy_dedup(points)


def test_explicit_points_collapses_exact_copies():
    assert ExplicitPoints((0.3 + 0.1j,) * 100_000).deduplicated == (0.3 + 0.1j,)


def test_explicit_points_keeps_vertical_line():
    line = 0.5 + 1j * np.linspace(-0.9, 0.9, 20_000)
    assert ExplicitPoints(tuple(line)).deduplicated == tuple(line.tolist())


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, math.inf)])
@pytest.mark.parametrize("at", [0, 2])
def test_non_finite_points_rejected(bad, at):
    pts = [0.5, 0.5j, -0.5]
    pts.insert(at, bad)
    with pytest.raises(ValueError, match=f"point index {at} is not finite"):
        ExplicitPoints(tuple(pts))
    b = BlaschkeProduct(1.0, (0.3,))
    with pytest.raises(ValueError, match="not finite"):
        certify_finite_points(b, b, pts)


def test_modulus_samples_csv_roundtrip(tmp_path):
    samples = ModulusSamples(
        np.array([0.1 + 0.2j, -0.3j]), np.array([1.5, 0.25])
    )
    path = tmp_path / "samples.csv"
    samples.to_csv(path)
    back = ModulusSamples.from_csv(path)
    assert np.array_equal(back.points, samples.points)
    assert np.array_equal(back.moduli, samples.moduli)


def test_modulus_samples_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("re,im\n0.0,0.0\n")
    with pytest.raises(ValueError, match="line 1"):
        ModulusSamples.from_csv(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("", "empty sample set"),
        ("0,0.5,0.0,nan\n", "must be finite, moduli non-negative"),
        ("0,0.5,0.0,-1.0\n", "must be finite, moduli non-negative"),
    ],
)
def test_modulus_samples_csv_rejects_bad_samples(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("index,re,im,modulus\n" + rows)
    with pytest.raises(ValueError, match=message):
        ModulusSamples.from_csv(path)


@pytest.mark.parametrize("header", ["t,modulus", "index,re,im,modulus", "re,im"])
def test_shared_csv_reader_rules(tmp_path, header):
    names = header.split(",")
    k = len(names)
    rows = [[0.25 * i + j for j in range(k)] for i in range(3)]
    rows[1][-1] = math.inf
    lines = [",".join(map(repr, row)) for row in rows]
    path = tmp_path / "data.csv"
    # blank lines are skipped, the rest are read in file order
    path.write_text(header + "\n\n" + "\n \n".join(lines) + "\n\n")
    columns = read_csv(path, header)
    assert np.array_equal(columns, np.array(rows).T)
    if "re" in names:
        re, im = columns[names.index("re")], columns[names.index("im")]
        expected = [complex(row[names.index("re")], row[names.index("im")]) for row in rows]
        assert np.array_equal(complex_points(re, im), np.array(expected))
    out = tmp_path / "out.csv"
    write_csv(out, header, columns)
    assert out.read_text() == header + "\n" + "\n".join(lines) + "\n"

    path.write_text("x,y\n" + lines[0] + "\n")
    with pytest.raises(ValueError, match=rf"^line 1: expected header '{header}', got 'x,y'$"):
        read_csv(path, header)
    path.write_text(f"{header}\n{lines[0]}\n\n{lines[1]},1.0\n")
    with pytest.raises(ValueError, match=rf"^line 4: expected {k} fields, got {k + 1}$"):
        read_csv(path, header)
    path.write_text(f"{header}\n{lines[0]}\n" + ",".join(["x"] * k) + "\n")
    with pytest.raises(ValueError, match="^line 3: could not convert string to float: 'x'$"):
        read_csv(path, header)


# ------------------------------------------------------------------ alignment


def test_align_identity():
    f = np.array([1 + 1j, 2.0, 3j])
    assert align_constant(f, f) == pytest.approx(1.0)


def test_align_recovers_exact_rotation():
    g = np.array([1 + 1j, 2.0, 3j, -0.5])
    f = -1j * g
    c = align_constant(f, g)
    assert c == pytest.approx(-1j)
    assert np.abs(f - c * g).max() < 1e-15


def test_align_unrelated_leaves_residual():
    rng = np.random.default_rng(2)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    c = align_constant(f, g)
    assert abs(abs(c) - 1.0) < 1e-14
    assert np.abs(f - c * g).max() > 1e-3


def test_align_degenerate():
    with pytest.raises(DegenerateAlignment):
        align_constant(np.array([1.0, -1.0]), np.array([1.0, 1.0]))


# ------------------------------------------------- equality up to a constant


def test_equal_up_to_unimodular_rotation():
    rng = np.random.default_rng(31)
    b1 = random_blaschke(rng, 3)
    lam_true = np.exp(1j * np.pi / 7)
    b2 = b1.with_constant(b1.constant / lam_true)
    lam = equal_up_to_unimodular(b1, b2)
    assert lam == pytest.approx(lam_true)
    z = 0.3 + 0.1j
    assert b1(z) == pytest.approx(lam * b2(z))


def test_equal_up_to_unimodular_tolerates_small_perturbation():
    b1 = BlaschkeProduct(1.0, (0.3,))
    b2 = BlaschkeProduct(1.0, (0.3 + 5e-10,))
    assert equal_up_to_unimodular(b1, b2) is not None


def test_equal_up_to_unimodular_distinct_zeros():
    assert (
        equal_up_to_unimodular(
            BlaschkeProduct(1.0, (0.3,)), BlaschkeProduct(1.0, (0.5,))
        )
        is None
    )


def test_equal_up_to_unimodular_degree_mismatch():
    assert (
        equal_up_to_unimodular(
            BlaschkeProduct(1.0, (0.3,)), BlaschkeProduct(1.0, (0.3, 0.1))
        )
        is None
    )


def test_blaschke_json_roundtrip():
    b = BlaschkeProduct(np.exp(0.3j), (0.1, -0.2j))
    back = BlaschkeProduct.from_json(b.to_json())
    assert back.constant == pytest.approx(b.constant)
    assert back.zeros == b.zeros
