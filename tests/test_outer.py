import tracemalloc

import numpy as np
import pytest

from discphase import (
    BlaschkeProduct,
    BoundaryModulus,
    Circle,
    EvaluationTooCloseToBoundary,
    ModulusData,
    ModulusSamples,
    OuterFunction,
    UNIT_CIRCLE,
    ZeroOnBoundary,
    boundary_modulus_of,
)
from conftest import outer_product_fn, random_outer_coeffs


def test_unit_modulus_gives_constant_one():
    u = OuterFunction(BoundaryModulus(np.ones(64)))
    zs = np.array([0.0, 0.5, -0.3 + 0.2j, 0.9j])
    assert np.abs(u(zs) - 1.0).max() < 1e-14


def test_constant_modulus_two():
    u = OuterFunction(BoundaryModulus(2.0 * np.ones(64)))
    assert u(0.4 - 0.1j) == pytest.approx(2.0)
    assert u(0.0) == pytest.approx(2.0)


def test_closed_form_oracle_one_plus_half_z():
    u = OuterFunction(boundary_modulus_of(lambda z: 1 + z / 2, 1024))
    assert abs(u(0.5) - 1.25) < 1e-8
    assert u(0.0) == pytest.approx(1.0, abs=1e-12)


def test_outer_reproduction_of_zero_free_products():
    rng = np.random.default_rng(19)
    for _ in range(5):
        coeffs = random_outer_coeffs(rng, int(rng.integers(1, 4)), max_modulus=0.6)
        f = outer_product_fn(coeffs)
        u = OuterFunction(boundary_modulus_of(f, 1024))
        pts = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(
            2j * np.pi * rng.uniform(size=100)
        )
        assert np.abs(u(pts) - f(pts)).max() < 1e-8


def test_value_at_zero_positive_for_random_data():
    rng = np.random.default_rng(23)
    for _ in range(20):
        values = np.exp(rng.standard_normal(64))
        u = OuterFunction(BoundaryModulus(values))
        w = u(0.0)
        assert w.real > 0.0
        assert abs(w.imag) < 1e-14 * w.real


def test_spectral_convergence_doubling():
    f = outer_product_fn([0.45, -0.3j, 0.2 + 0.1j])
    u1 = OuterFunction(boundary_modulus_of(f, 1024))
    u2 = OuterFunction(boundary_modulus_of(f, 2048))
    rng = np.random.default_rng(5)
    pts = 0.9 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    assert np.abs(u1(pts) - u2(pts)).max() <= 1e-10


def test_outer_call_and_radius_cap():
    u = OuterFunction(BoundaryModulus(np.ones(32)))
    assert u(0.5) == pytest.approx(1.0)
    with pytest.raises(EvaluationTooCloseToBoundary, match="exceeds rho_max = 0.99"):
        u(0.995)


def test_boundary_modulus_of_blaschke_is_one():
    b = BlaschkeProduct(1.0, (0.3, -0.2j))
    bm = boundary_modulus_of(b, 64)
    assert np.abs(bm.moduli - 1.0).max() < 1e-12


def test_boundary_modulus_of_outer_factor():
    bm = boundary_modulus_of(lambda z: 1 + z / 2, 64)
    t = 2 * np.pi * np.arange(64) / 64
    assert np.allclose(bm.moduli, np.abs(1 + np.exp(1j * t) / 2))


def test_boundary_modulus_of_rejects_a_non_integer_grid_size():
    # 16.5 once gave 17 moduli sampled off the 2 pi k / 17 nodes they stand for
    for n in (16.5, -3):
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            boundary_modulus_of(lambda z: 1 + z / 2, n)
    assert boundary_modulus_of(lambda z: 1 + z / 2, np.int64(16)).n == 16


def test_boundary_zero_rejected():
    with pytest.raises(ZeroOnBoundary):
        boundary_modulus_of(lambda z: 1.0 - z, 64)  # vanishes at the t = 0 node


def test_grid_validation():
    bm = BoundaryModulus(np.ones(16))
    assert isinstance(bm, ModulusData) and isinstance(bm, ModulusSamples)
    assert np.array_equal(bm.points, UNIT_CIRCLE.sample_points(16))
    with pytest.raises(ValueError):
        BoundaryModulus(np.ones(8))  # too coarse
    with pytest.raises(ValueError, match="positive and finite"):
        BoundaryModulus(np.array([1.0] * 31 + [-1.0]))
    for zero in (0.0, 1e-11):  # at or below the 1e-10 zero rule
        with pytest.raises(ZeroOnBoundary):
            BoundaryModulus(np.array([1.0] * 31 + [zero]))


def test_boundary_csv_roundtrip(tmp_path):
    bm = boundary_modulus_of(lambda z: 1 + z / 3, 32)
    path = tmp_path / "boundary.csv"
    bm.to_csv(path)
    back = BoundaryModulus.from_csv(path)
    assert np.array_equal(back.moduli, bm.moduli)


def test_boundary_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["t,modulus"] + [f"{0.1 * k * k},1.0" for k in range(20)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="uniform"):
        BoundaryModulus.from_csv(path)


def test_boundary_csv_checks_each_node_within_2e13(tmp_path):
    path = tmp_path / "grid.csv"
    t = 2 * np.pi * np.arange(20) / 20
    for moved, accepted in ((1e-13, True), (3e-13, False)):
        t_file = t.copy()
        t_file[7] += moved
        path.write_text("t,modulus\n" + "".join(f"{float(tk)!r},1.0\n" for tk in t_file))
        if accepted:
            assert BoundaryModulus.from_csv(path).n == 20
        else:
            with pytest.raises(ValueError, match="uniform"):
                BoundaryModulus.from_csv(path)
    # uniform spacing, but offset by half a step
    path.write_text("t,modulus\n" + "".join(f"{float(tk + np.pi / 20)!r},1.0\n" for tk in t))
    with pytest.raises(ValueError, match="uniform"):
        BoundaryModulus.from_csv(path)


def test_boundary_csv_rejects_nan_grid_node(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["t,modulus"] + [f"{2 * np.pi * k / 20!r},1.0" for k in range(20)]
    rows[4] = "nan,1.0"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="grid"):
        BoundaryModulus.from_csv(path)


def _trapezoid_reference(boundary, z):
    """The trapezoid rule summed directly, in chunks of 64 points, in extended
    precision with nodes computed there: at |z| = 0.99 the kernel magnifies
    the rounding of double-precision nodes to about 1e-13."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel().astype(np.clongdouble)
    n = boundary.n
    t = 2 * np.arccos(np.longdouble(-1)) * np.arange(n, dtype=np.longdouble) / n
    nodes = np.cos(t) + 1j * np.sin(t).astype(np.clongdouble)
    log = np.log(boundary.moduli.astype(np.longdouble))
    exponent = np.empty(len(flat), dtype=np.clongdouble)
    for s in range(0, len(flat), 64):
        chunk = flat[s : s + 64, None]
        exponent[s : s + 64] = ((nodes + chunk) / (nodes - chunk) * log).sum(axis=1) / n
    return np.exp(exponent.astype(complex)).reshape(z.shape)


def _agreement_points(n, rng):
    scattered = 0.989 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    edge = np.array([0.99, -0.99, 0.99j, -0.99j])
    assert np.all(np.abs(edge) == 0.99)
    return {
        "centred grid, m = n": Circle(0.0, 0.9).sample_points(n),
        "centred grid, m != n": Circle(0.0, 0.985).sample_points(77),
        "grid with a phase offset": Circle(0.0, 0.7).sample_points(100, 0.3),
        "grid in reversed order": Circle(0.0, 0.6).sample_points(64)[::-1],
        "scattered": scattered,
        "|z| = 0.99": edge,
        "2-D array": scattered[:24].reshape(4, 6),
    }


@pytest.mark.parametrize("n", [16, 256, 4096])
def test_agrees_with_direct_trapezoid_sum(n):
    rng = np.random.default_rng(n)
    boundary = BoundaryModulus(np.exp(0.5 * rng.standard_normal(n)))
    u = OuterFunction(boundary)
    for label, z in _agreement_points(n, rng).items():
        got = u(z)
        assert got.shape == z.shape, label
        assert np.abs(got / _trapezoid_reference(boundary, z) - 1.0).max() <= 1e-13, label


@pytest.mark.parametrize("n", [16, 256, 4096])
@pytest.mark.parametrize("rho", [0.3, 0.95, 0.99])
def test_truncated_scattered_series_agrees_with_direct_trapezoid_sum(n, rho):
    # the scattered series stops where rho^j falls below round-off
    rng = np.random.default_rng([n, int(100 * rho)])
    boundary = BoundaryModulus(np.exp(0.5 * rng.standard_normal(n)))
    z = 0.999 * rho * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    z[:2] = rho * 1j, -rho  # max |z| is exactly rho
    got = OuterFunction(boundary)(z)
    assert np.abs(got / _trapezoid_reference(boundary, z) - 1.0).max() <= 1e-13


def test_series_length_drops_only_terms_below_round_off():
    from discphase.outer import _series_length

    assert _series_length(0.95) == 774
    assert 0.95**775 <= 2.0**-53 * 0.05 < 0.95**774
    assert _series_length(0.99) == 4113
    assert 0.99**4114 <= 2.0**-53 * 0.01 < 0.99**4113
    assert _series_length(0.0) == 0


def test_nan_scattered_point_stays_nan():
    u = OuterFunction(boundary_modulus_of(lambda z: 1 + z / 2, 4096))
    z = np.array([0.1, np.nan, 0.5j])
    got = u(z)
    assert np.isnan(got[1])
    assert np.abs(got[[0, 2]] - u(z[[0, 2]])).max() < 1e-15


def test_value_at_zero_in_every_shape():
    rng = np.random.default_rng(7)
    boundary = BoundaryModulus(np.exp(0.5 * rng.standard_normal(256)))
    u = OuterFunction(boundary)
    expected = _trapezoid_reference(boundary, 0.0)
    for z in (0.0, np.array(0.0)):
        assert isinstance(u(z), complex) and u(z) == pytest.approx(expected, rel=1e-13)
    block = u(np.zeros((2, 3)))
    assert block.shape == (2, 3) and np.abs(block / expected - 1.0).max() <= 1e-13
    empty = u(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("n", [64, 4096])
def test_value_at_zero_is_exactly_real(n):
    rng = np.random.default_rng(n)
    u = OuterFunction(BoundaryModulus(np.exp(rng.standard_normal(n))))
    w = u(0.0)
    assert w.imag == 0.0
    assert w.real > 0.0


def test_scattered_evaluation_memory_is_small():
    """No n x m array: 1024 points at n = 4096 stay far below the 64 MiB of
    one complex 1024 x 4096 matrix."""
    rng = np.random.default_rng(11)
    u = OuterFunction(BoundaryModulus(np.exp(0.3 * rng.standard_normal(4096))))
    pts = 0.95 * np.sqrt(rng.uniform(size=1024)) * np.exp(2j * np.pi * rng.uniform(size=1024))
    tracemalloc.start()
    try:
        u(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_circle_grids_take_the_fft_branch():
    from discphase.geometry import _is_centred_grid

    for grid in (
        Circle(0.0, 0.5).sample_points(4096),
        Circle(0.0, 0.7).sample_points(100, 0.3),
        0.3j * UNIT_CIRCLE.sample_points(2),
    ):
        assert _is_centred_grid(grid) is True
    rng = np.random.default_rng(2)
    for points in (
        Circle(0.0, 0.5).sample_points(64)[::-1],
        Circle(0.1, 0.5).sample_points(64),
        0.5 * np.exp(2j * np.pi * rng.uniform(size=64)),
        Circle(0.0, 0.5).sample_points(64).reshape(8, 8),
        np.zeros(4),
        np.array([0.5]),
    ):
        assert _is_centred_grid(points) is False


def test_nan_point_on_a_grid_stays_nan():
    u = OuterFunction(boundary_modulus_of(lambda z: 1 + z / 2, 64))
    grid = Circle(0.0, 0.5).sample_points(8)
    grid[3] = np.nan
    got = u(grid)
    assert np.isnan(got[3])
    keep = np.arange(8) != 3
    assert np.abs(got[keep] - u(grid[keep])).max() < 1e-15
