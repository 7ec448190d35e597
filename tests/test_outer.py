import numpy as np
import pytest

from discphase import (
    BlaschkeProduct,
    BoundaryModulus,
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


def test_boundary_zero_rejected():
    with pytest.raises(ZeroOnBoundary):
        boundary_modulus_of(lambda z: 1.0 - z, 64)  # vanishes at the t = 0 node


def test_grid_validation():
    bm = BoundaryModulus(np.ones(16))
    assert isinstance(bm, ModulusData) and isinstance(bm, ModulusSamples)
    assert np.array_equal(bm.points, UNIT_CIRCLE.sample_points(16))
    with pytest.raises(ValueError):
        BoundaryModulus(np.ones(8))  # too coarse
    with pytest.raises(ValueError):
        BoundaryModulus(np.array([1.0] * 31 + [0.0]))  # nonpositive


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
