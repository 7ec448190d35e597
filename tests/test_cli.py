import json
import math

import numpy as np
import pytest

from discphase import cli
from discphase.cli import main

SQRT2 = math.sqrt(2.0)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


# -------------------------------------------------------------------- classify


def test_classify_concentric_unique(capsys):
    code, rep, _ = run_cli(capsys, "classify", "--c1=0,0,0.8", "--c2=0,0,0.2")
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["configuration"] == "internally_disjoint"
    assert rep["verdict"] == "unique up to unimodular constant"


def test_classify_right_angle_non_unique(capsys):
    a = 1 / (3 * SQRT2)
    code, rep, _ = run_cli(
        capsys, "classify", f"--c1={a},0,{1/3}", f"--c2={-a},0,{1/3}"
    )
    assert code == 0
    assert rep["configuration"] == "intersecting"
    assert rep["angle"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep["angle_class"]["kind"] == "rational_multiple_of_pi"
    assert (rep["angle_class"]["p"], rep["angle_class"]["q"]) == (1, 2)
    assert rep["verdict"].startswith("non-unique")


def test_classify_irrational_angle_unique(capsys):
    # symmetric crossing pair with angle pi (sqrt(2) - 1)
    r1 = r2 = 0.25
    theta = math.pi * (SQRT2 - 1.0)
    d = math.sqrt(r1**2 + r2**2 + 2 * r1 * r2 * math.cos(theta))
    code, rep, _ = run_cli(capsys, "classify", "--c1=0,0,0.25", f"--c2={d},0,0.25")
    assert code == 0
    assert rep["angle_class"]["kind"] == "presumed_irrational"
    assert rep["verdict"].startswith("unique (under irrationality")


def test_classify_identical_circles_invalid(capsys):
    code, rep, _ = run_cli(capsys, "classify", "--c1=0,0,0.5", "--c2=0,0,0.5")
    assert code == 2
    assert rep["status"] == "invalid-input"


def test_classify_rejects_malformed_and_outside(capsys):
    code, rep, _ = run_cli(capsys, "classify", "--c1=0,0", "--c2=0,0,0.5")
    assert code == 2
    code, rep, _ = run_cli(capsys, "classify", "--c1=0.9,0,0.3", "--c2=0,0,0.2")
    assert code == 2


# ------------------------------------------------------------ sample / retrieve


@pytest.fixture
def product_descriptor(tmp_path):
    descriptor = {
        "type": "product",
        "factors": [
            {"type": "blaschke", "constant": [1, 0], "zeros": [[0.3, 0]]},
            {
                "type": "rational",
                "num": {"type": "poly", "coeffs": [[1, 0], [0.5, 0]]},
                "den": {"type": "poly", "coeffs": [[1, 0]]},
            },
        ],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(descriptor))
    return str(path)


def test_sample_then_retrieve_roundtrip(capsys, tmp_path, product_descriptor):
    boundary = str(tmp_path / "boundary.csv")
    inner = str(tmp_path / "inner.csv")
    code, rep, _ = run_cli(
        capsys, "sample", "--f", product_descriptor, "--circle", "0,0,1",
        "--n", "256", "--out", boundary,
    )
    assert code == 0 and rep["format"] == "t,modulus"
    code, rep, _ = run_cli(
        capsys, "sample", "--f", product_descriptor, "--circle", "0,0,0.5",
        "--n", "256", "--out", inner,
    )
    assert code == 0 and rep["format"] == "index,re,im,modulus"
    assert len(open(inner).readlines()) == 257  # header + one row per sample

    out_json = str(tmp_path / "result.json")
    code, rep, _ = run_cli(
        capsys, "retrieve", "--boundary", boundary, "--inner", inner,
        "--r", "0.5", "--out", out_json,
    )
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["degree"] == 1
    zero = complex(*rep["blaschke"]["zeros"][0])
    assert zero == pytest.approx(0.3, abs=1e-6)
    assert rep["residual_rT"] <= 1e-7
    saved = json.loads(open(out_json).read())
    assert saved["blaschke"] == rep["blaschke"]
    outer_csv = rep["outer_boundary"]["csv"]
    assert outer_csv and open(outer_csv).readline().strip() == "t,modulus"

    # end-to-end roundtrip: reconstruct from the report files and compare
    from discphase import (
        BlaschkeProduct,
        BoundaryModulus,
        OuterFunction,
        align_constant,
        function_expr_from_json,
    )

    recovered_b = function_expr_from_json(rep["blaschke"])
    recovered_u = OuterFunction(BoundaryModulus.from_csv(outer_csv))
    rng = np.random.default_rng(2)
    grid = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(
        2j * np.pi * rng.uniform(size=100)
    )
    truth = BlaschkeProduct(1.0, (0.3,))(grid) * (1 + 0.5 * grid)
    approx = recovered_b(grid) * recovered_u(grid)
    lam = align_constant(truth, approx)
    assert np.abs(truth - lam * approx).max() <= 1e-6


def test_retrieve_mismatched_grid_sizes(capsys, tmp_path, product_descriptor):
    boundary = str(tmp_path / "boundary.csv")
    inner = str(tmp_path / "inner.csv")
    run_cli(capsys, "sample", "--f", product_descriptor, "--circle", "0,0,1",
            "--n", "128", "--out", boundary)
    run_cli(capsys, "sample", "--f", product_descriptor, "--circle", "0,0,0.5",
            "--n", "256", "--out", inner)
    code, rep, _ = run_cli(
        capsys, "retrieve", "--boundary", boundary, "--inner", inner, "--r", "0.5"
    )
    assert code == 2
    assert rep["status"] == "invalid-input"


def test_sample_poly_descriptor(capsys, tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"type": "poly", "coeffs": [[1.0, 0.0], [0.5, 0.0]]}))
    out = tmp_path / "poly.csv"
    code, rep, _ = run_cli(
        capsys, "sample", "--f", str(poly), "--circle", "0,0,0.5", "--n", "64",
        "--out", str(out),
    )
    assert code == 0
    assert rep["status"] == "ok"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    z = rows[:, 1] + 1j * rows[:, 2]
    assert np.allclose(rows[:, 3], np.abs(1.0 + 0.5 * z), rtol=0, atol=1e-15)

    poly.write_text(json.dumps({"type": "poly", "coeffs": [[math.nan, 0.0]]}))
    code, rep, _ = run_cli(
        capsys, "sample", "--f", str(poly), "--circle", "0,0,0.5", "--n", "64",
        "--out", str(out),
    )
    assert code == 2
    assert rep["status"] == "invalid-input"


@pytest.mark.parametrize("column", [3, 1])  # the modulus, then the real part
def test_retrieve_rejects_non_finite_inner_row(capsys, tmp_path, product_descriptor, column):
    boundary = str(tmp_path / "boundary.csv")
    inner = tmp_path / "inner.csv"
    run_cli(capsys, "sample", "--f", product_descriptor, "--circle", "0,0,1",
            "--n", "64", "--out", boundary)
    run_cli(capsys, "sample", "--f", product_descriptor, "--circle", "0,0,0.5",
            "--n", "64", "--out", str(inner))
    lines = inner.read_text().splitlines()
    row = lines[5].split(",")
    row[column] = "inf" if column == 3 else "nan"
    lines[5] = ",".join(row)
    inner.write_text("\n".join(lines) + "\n")
    code, rep, _ = run_cli(
        capsys, "retrieve", "--boundary", boundary, "--inner", str(inner), "--r", "0.5"
    )
    assert code == 2
    assert rep["status"] == "invalid-input"
    assert "must be finite" in rep["error"]


def test_retrieve_bad_csv_reports_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,modulus\n0.0,1.0\nnonsense\n")
    code, rep, _ = run_cli(
        capsys, "retrieve", "--boundary", str(bad), "--inner", str(bad), "--r", "0.5"
    )
    assert code == 2
    assert "line 3" in rep["error"]


def test_retrieve_singular_inner_is_numerical_failure(capsys, tmp_path):
    def singular(z):
        zz = np.asarray(z, dtype=complex)
        return np.exp(-(1 + zz) / (1 - zz))

    t = 2 * np.pi * np.arange(256) / 256
    boundary = tmp_path / "sing_T.csv"
    boundary.write_text(
        "t,modulus\n" + "".join(f"{float(tk)!r},1.0\n" for tk in t)
    )
    zr = 0.5 * np.exp(1j * t)
    vals = np.abs(singular(zr))
    inner = tmp_path / "sing_r.csv"
    inner.write_text(
        "index,re,im,modulus\n"
        + "".join(
            f"{k},{float(p.real)!r},{float(p.imag)!r},{float(m)!r}\n"
            for k, (p, m) in enumerate(zip(zr, vals))
        )
    )
    code, rep, _ = run_cli(
        capsys, "retrieve", "--boundary", str(boundary), "--inner", str(inner), "--r", "0.5"
    )
    assert code == 3
    assert rep["status"] == "numerical-failure"
    assert rep["kind"] == "DegreeCapExceeded"
    assert rep["stage"] == "degree_search"


# --------------------------------------------------------------------- certify


@pytest.fixture
def blaschke_files(tmp_path):
    b1 = {"type": "blaschke", "constant": [1, 0], "zeros": [[0.3, 0], [0, 0.4]]}
    rot = complex(math.cos(math.pi / 5), math.sin(math.pi / 5))
    b2 = {"type": "blaschke", "constant": [rot.real, rot.imag], "zeros": [[0.3, 0], [0, 0.4]]}
    b3 = {"type": "blaschke", "constant": [1, 0], "zeros": [[0.5, 0], [0, 0.4]]}
    paths = {}
    for name, obj in (("b1", b1), ("b2", b2), ("b3", b3)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def test_certify_rotated_product(capsys, blaschke_files):
    code, rep, _ = run_cli(
        capsys, "certify", "--f", blaschke_files["b1"], "--g", blaschke_files["b2"],
        "--r", "0.5", "--points", "8",
    )
    assert code == 0
    assert rep["certificate"]["verdict"] == "equal_on_circle"
    assert rep["certificate"]["bound"] == 7


def test_certify_distinct_products_inconclusive(capsys, blaschke_files):
    code, rep, _ = run_cli(
        capsys, "certify", "--f", blaschke_files["b1"], "--g", blaschke_files["b3"],
        "--r", "0.5", "--points", "8",
    )
    assert code == 1
    assert rep["status"] == "inconclusive"


def test_certify_too_few_points(capsys, blaschke_files):
    code, rep, _ = run_cli(
        capsys, "certify", "--f", blaschke_files["b1"], "--g", blaschke_files["b3"],
        "--r", "0.5", "--points", "7",
    )
    assert code == 2
    assert "2M+2N-1" in rep["error"]


def test_certify_rejects_non_blaschke_descriptor(capsys, tmp_path, product_descriptor):
    code, rep, _ = run_cli(
        capsys, "certify", "--f", product_descriptor, "--g", product_descriptor,
        "--r", "0.5", "--points", "8",
    )
    assert code == 2


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"stdout holds the non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["retrieve", "certify", "verify"])
def test_non_finite_tol_is_invalid_input(capsys, tmp_path, blaschke_files, command, tol):
    if command == "retrieve":
        # degree-2 data and --degree-max 0: only a tolerance that passes every
        # residual check lets the degree-0 fit through
        boundary, inner = str(tmp_path / "boundary.csv"), str(tmp_path / "inner.csv")
        for circle, out in (("0,0,1", boundary), ("0,0,0.5", inner)):
            run_cli(capsys, "sample", "--f", blaschke_files["b1"], "--circle", circle,
                    "--n", "64", "--out", out)
        args = ["retrieve", "--boundary", boundary, "--inner", inner, "--r", "0.5",
                "--degree-max", "0"]
    elif command == "certify":
        args = ["certify", "--f", blaschke_files["b1"], "--g", blaschke_files["b3"],
                "--r", "0.5", "--points", "8"]
    else:
        args = ["verify", "--f", blaschke_files["b1"], "--g", blaschke_files["b3"],
                "--set", "circle:0,0,0.5"]
    code = main(args + ["--tol", tol])
    rep = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert rep["status"] == "invalid-input"
    assert "finite and positive" in rep["error"]


#: a moebius_of descriptor with coefficient a = A over the identity polynomial
_MOEBIUS_OF = (
    '{"type": "moebius_of", "map": {"a": A, "b": [0, 0], "c": [0, 0], "d": [1, 0]}, '
    '"inner": {"type": "poly", "coeffs": [[0, 0], [1, 0]]}}'
)


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "--f", "{b1}", "--circle", "nan,0,0.5", "--n", "32", "--out", "{out}"],
        ["sample", "--f", "{b1}", "--circle", "0,0,inf", "--n", "32", "--out", "{out}"],
        ["sample", "--f", "{b1}", "--circle", "0,0,0.5", "--n", "32", "--phase-offset", "nan",
         "--out", "{out}"],
        ["verify", "--f", "{b1}", "--g", "{b3}", "--set", "circle:nan,0,0.5"],
        ["certify", "--f", "{nan_constant}", "--g", "{b3}", "--r", "0.5", "--points", "16"],
        ["verify", "--f", "{nan_constant}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["example", "finite_set", "--alpha", "nan", "--out-dir", "{out_dir}"],
        ["example", "finite_set", "--r", "nan", "--out-dir", "{out_dir}"],
        ["example", "right_angle_circles", "--c1", "nan", "--out-dir", "{out_dir}"],
        ["sample", "--f", "{moebius_inf}", "--circle", "0,0,0.5", "--n", "8", "--out", "{out}"],
        ["sample", "--f", "{moebius_nan}", "--circle", "0,0,0.5", "--n", "8", "--out", "{out}"],
        ["verify", "--f", "{moebius_inf}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
    ],
    ids=[
        "sample-circle-centre", "sample-circle-radius", "sample-phase-offset", "verify-circle",
        "certify-constant", "verify-constant", "example-alpha", "example-r", "example-c1",
        "sample-moebius-inf", "sample-moebius-nan", "verify-moebius-inf",
    ],
)
def test_non_finite_numbers_are_invalid_input(capsys, tmp_path, blaschke_files, args):
    files = {
        "nan_constant": '{"type": "blaschke", "constant": [NaN, 0.0], "zeros": [[0.3, 0.0]]}',
        "moebius_inf": _MOEBIUS_OF.replace("A", "[Infinity, 0]"),
        "moebius_nan": _MOEBIUS_OF.replace("A", "[NaN, 0]"),
    }
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    out = tmp_path / "samples.csv"
    argv = [
        a.format(out=out, out_dir=tmp_path / "ex", **paths, **blaschke_files) for a in args
    ]
    code = main(argv)
    rep = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert rep["status"] == "invalid-input"
    assert not out.exists()


def test_verify_accepts_moebius_dilation(capsys, tmp_path):
    # z -> 1e15 z has determinant 1e15: its coefficients are finite and it is
    # not degenerate, however small d is after normalising by a
    path = tmp_path / "dilation.json"
    path.write_text(_MOEBIUS_OF.replace("A", "[1e15, 0]"))
    code, rep, _ = run_cli(
        capsys, "verify", "--f", str(path), "--g", str(path), "--set", "circle:0,0,0.5"
    )
    assert code == 0
    assert rep["report"]["max_deviation"] == 0.0


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "--f", "{as_list}", "--g", "{b3}", "--r", "0.5", "--points", "16"],
        ["verify", "--f", "{as_list}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["certify", "--f", "{no_fields}", "--g", "{b3}", "--r", "0.5", "--points", "16"],
        ["certify", "--f", "{int_zeros}", "--g", "{b3}", "--r", "0.5", "--points", "16"],
        ["verify", "--f", "{int_zeros}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{int_factors}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{infinite_power}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{deep}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{three_constant}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{three_moebius}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{float_power}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{string_power}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{bool_power}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["verify", "--f", "{huge_power}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["certify", "--f", "{huge_constant}", "--g", "{b3}", "--r", "0.5", "--points", "16"],
        ["verify", "--f", "{huge_zero}", "--g", "{b3}", "--set", "circle:0,0,0.5"],
        ["sample", "--f", "{huge_coeff}", "--circle", "0,0,0.5", "--n", "8", "--out", "{out}"],
        ["sample", "--f", "{b1}", "--circle", "0,0,0.5", "--n", "32", "--out", "{no_dir}/x.csv"],
        ["retrieve", "--boundary", "{boundary}", "--inner", "{inner}", "--r", "0.5",
         "--out", "{no_dir}/r.json"],
    ],
    ids=[
        "certify-list", "verify-list", "certify-no-fields", "certify-int-zeros",
        "verify-int-zeros", "verify-int-factors", "verify-infinite-power", "verify-deep",
        "verify-three-number-constant", "verify-three-number-moebius", "verify-float-power",
        "verify-string-power", "verify-bool-power", "verify-huge-power", "certify-huge-constant",
        "verify-huge-zero", "sample-huge-coeff", "sample-out-dir", "retrieve-out-dir",
    ],
)
def test_malformed_descriptors_and_paths_are_invalid_input(
    capsys, tmp_path, blaschke_files, args
):
    inner = {"type": "rational", "num": {"type": "poly", "coeffs": [[1, 0]]},
             "den": {"type": "poly", "coeffs": [[2, 0]]}}
    descriptors = {
        "as_list": json.dumps([1, 2]),
        "no_fields": json.dumps({"type": "blaschke"}),
        "int_zeros": json.dumps({"type": "blaschke", "constant": [1, 0], "zeros": 5}),
        "int_factors": json.dumps({"type": "product", "factors": 7}),
        "infinite_power": json.dumps({"type": "power_composite", "k": math.inf, "inner": inner}),
        "deep": "[" * 100_000,  # nested past the recursion limit
        # an [re, im] pair holds exactly two numbers, wherever it appears
        "three_constant": json.dumps({"type": "blaschke", "constant": [1.0, 0.0, 99], "zeros": []}),
        "three_moebius": _MOEBIUS_OF.replace("A", "[1, 0, 5]"),
        # the power k is an integer >= 1: neither rounded nor read from a string or bool
        "float_power": json.dumps({"type": "power_composite", "k": 2.7, "inner": inner}),
        "string_power": json.dumps({"type": "power_composite", "k": "2", "inner": inner}),
        "bool_power": json.dumps({"type": "power_composite", "k": True, "inner": inner}),
        # numpy would round a power above 2^53 to a float, and 10**400 overflows it
        "huge_power": json.dumps({"type": "power_composite", "k": 10**400, "inner": inner}),
        # finite numbers whose modulus overflows a float
        "huge_constant": json.dumps({"type": "blaschke", "constant": [1.5e308, 1.5e308], "zeros": []}),
        "huge_zero": json.dumps({"type": "blaschke", "constant": [1, 0], "zeros": [[1.5e308, 1.5e308]]}),
        "huge_coeff": json.dumps({"type": "poly", "coeffs": [[1, 0], [1.5e308, 1.5e308]]}),
    }
    paths = {"no_dir": tmp_path / "missing", "out": tmp_path / "out.csv", **blaschke_files}
    for name, text in descriptors.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    for name, circle in (("boundary", "0,0,1"), ("inner", "0,0,0.5")):
        paths[name] = tmp_path / f"{name}.csv"
        main(["sample", "--f", blaschke_files["b1"], "--circle", circle, "--n", "64",
              "--out", str(paths[name])])
    capsys.readouterr()
    code = main([a.format(**paths) for a in args])
    captured = capsys.readouterr()
    rep = _strict_json(captured.out)
    assert code == 2
    assert rep["status"] == "invalid-input"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "descriptor, message",
    [
        (
            {"type": "blaschke", "constant": [1, 0], "zeros": [[0.1, 0.2, 0.3]]},
            "zeros[0]: expected an [re, im] pair of finite modulus, got [0.1, 0.2, 0.3]",
        ),
        ({"type": "blaschke", "constant": [1, 0]}, "zeros: missing field"),
        (
            {"type": "rational", "num": {"type": "poly", "coeffs": [[1, 0]]},
             "den": {"type": "blaschke", "constant": [1, 0], "zeros": []}},
            "den: expected a 'poly' descriptor, got type 'blaschke'",
        ),
    ],
    ids=["three-number-zero", "no-zeros", "blaschke-den"],
)
def test_malformed_descriptor_error_names_file_and_field(
    capsys, tmp_path, blaschke_files, descriptor, message
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(descriptor))
    for command in (["verify", "--set", "circle:0,0,0.5"], ["certify", "--r", "0.5", "--points", "16"]):
        code, rep, err = run_cli(capsys, *command, "--f", str(path), "--g", blaschke_files["b3"])
        assert code == 2
        assert rep["error"] == f"{path}: {message}"
        assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--c1", "0.2,0,0.3", "--c2", "-0.2,0,0.3"], "--c2: expected one argument"),
        (["classify", "--c1=0,0,0.8", "--c2=0,0,0.2", "--bogus"], "unrecognized arguments: --bogus"),
        (["classify", "--c1=0,0,0.8"], "the following arguments are required: --c2"),
        (["verify", "--f", "f.json", "--g", "g.json", "--set", "circle:0,0,0.5", "--n", "abc"],
         "invalid int value: 'abc'"),
    ],
)
def test_usage_errors_are_invalid_input(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    rep = _strict_json(captured.out)
    assert code == 2
    assert rep["status"] == "invalid-input"
    assert message in rep["error"]
    assert captured.err.startswith("usage: discphase")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--help"])
    assert info.value.code == 0
    assert "--c1" in capsys.readouterr().out


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("top coefficient failed to cancel")

    monkeypatch.setattr("discphase.cli.cmd_classify", broken)
    code = main(["classify", "--c1=0,0,0.8", "--c2=0,0,0.2"])
    captured = capsys.readouterr()
    rep = _strict_json(captured.out)
    assert code == 4
    assert rep == {
        "status": "internal-error",
        "error": "top coefficient failed to cancel",
        "kind": "RuntimeError",
    }
    assert "Traceback (most recent call last)" in captured.err


# -------------------------------------------------------------- verify / example


def test_example_then_verify_segments(capsys, tmp_path):
    out_dir = str(tmp_path / "ex")
    code, rep, _ = run_cli(capsys, "example", "perpendicular_lines", "--out-dir", out_dir)
    assert code == 0
    assert rep["max_deviation_on_advertised_sets"] <= 1e-12
    assert rep["witness"]["deviation"] >= 1e-3
    code, rep, _ = run_cli(
        capsys, "verify", "--f", f"{out_dir}/f.json", "--g", f"{out_dir}/g.json",
        "--set", "segment:-0.9,0,0.9,0", "--n", "101",
    )
    assert code == 0
    assert rep["report"]["max_deviation"] <= 1e-12
    code, rep, _ = run_cli(
        capsys, "verify", "--f", f"{out_dir}/f.json", "--g", f"{out_dir}/g.json",
        "--set", "circle:0,0,0.5",
    )
    assert code == 1  # they differ off the lines


def test_verify_file_point_set(capsys, tmp_path):
    out_dir = str(tmp_path / "ex")
    run_cli(capsys, "example", "perpendicular_lines", "--out-dir", out_dir)
    points = tmp_path / "points.csv"
    points.write_text("re,im\n0.5,0.0\n0.0,0.5\n-0.25,0.0\n")
    code, rep, _ = run_cli(
        capsys, "verify", "--f", f"{out_dir}/f.json", "--g", f"{out_dir}/g.json",
        "--set", f"file:{points}",
    )
    assert code == 0
    assert rep["report"]["n_points"] == 3


def test_verify_file_errors_name_path_and_line(capsys, tmp_path, blaschke_files):
    points = tmp_path / "points.csv"
    for text, message in (
        ("re,im\n0.5,0.0\n0.0,x\n", "line 3: could not convert string to float: 'x'"),
        ("re,im\n0.5,0.0,1.0\n", "line 2: expected 2 fields, got 3"),
        ("x,y\n0.5,0.0\n", "line 1: expected header 're,im', got 'x,y'"),
    ):
        points.write_text(text)
        code, rep, _ = run_cli(
            capsys, "verify", "--f", blaschke_files["b1"], "--g", blaschke_files["b3"],
            "--set", f"file:{points}",
        )
        assert code == 2
        assert rep["error"] == f"{points}: {message}"


@pytest.mark.parametrize("spec", ["file:{first}", "file:{later}", "segment:nan,0,0.5,0"])
def test_verify_rejects_non_finite_point(capsys, tmp_path, spec):
    out_dir = str(tmp_path / "ex")
    run_cli(capsys, "example", "perpendicular_lines", "--out-dir", out_dir)
    first = tmp_path / "first.csv"
    first.write_text("re,im\nnan,0\n0.5,0.0\n0.0,0.5\n")
    later = tmp_path / "later.csv"
    later.write_text("re,im\n0.5,0.0\nnan,0\n0.0,0.5\n")
    code, rep, _ = run_cli(
        capsys, "verify", "--f", f"{out_dir}/f.json", "--g", f"{out_dir}/g.json",
        "--set", spec.format(first=first, later=later),
    )
    assert code == 2
    assert rep["status"] == "invalid-input"
    assert "not finite" in rep["error"]


def test_segment_points_end_on_the_endpoints():
    pts = cli._segment_points(0.0, 1.0, 5)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert cli._segment_points(0.25j, 1.0, 1).tolist() == [0.25j]


def test_verify_bad_set_spec(capsys, tmp_path):
    out_dir = str(tmp_path / "ex")
    run_cli(capsys, "example", "perpendicular_lines", "--out-dir", out_dir)
    code, rep, _ = run_cli(
        capsys, "verify", "--f", f"{out_dir}/f.json", "--g", f"{out_dir}/g.json",
        "--set", "triangle:1,2,3",
    )
    assert code == 2


@pytest.mark.parametrize(
    "name", ["rational_angle", "finite_set", "right_angle_circles", "strip", "inverse_points"]
)
def test_example_families_write_reports(capsys, tmp_path, name):
    out_dir = tmp_path / name
    code, rep, _ = run_cli(capsys, "example", name, "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").exists()
    saved = json.loads((out_dir / "report.json").read_text())
    assert saved["status"] == "ok"
    if name in ("rational_angle", "finite_set", "right_angle_circles"):
        assert rep["max_deviation_on_advertised_sets"] <= 1e-11
        assert rep["witness"]["deviation"] >= 1e-3
        assert (out_dir / "f.json").exists() and (out_dir / "g.json").exists()
    if name == "strip":
        assert rep["maps_strip_into_disc"] is True
        assert rep["edge_im0"]["max_unimodularity_deviation"] <= 1e-11
        assert rep["edge_im1"]["max_unimodularity_deviation"] <= 1e-11
    if name == "inverse_points":
        assert rep["report"]["constants_gap"] > 1e-2


def test_sample_through_a_pole_is_numerical_failure(capsys, tmp_path):
    f = tmp_path / "f.json"  # 1 / (z - 0.5)
    f.write_text(json.dumps({
        "type": "rational",
        "num": {"type": "poly", "coeffs": [[1, 0]]},
        "den": {"type": "poly", "coeffs": [[-0.5, 0], [1, 0]]},
    }))
    out = tmp_path / "samples.csv"
    code, rep, _ = run_cli(
        capsys, "sample", "--f", str(f), "--circle", "0,0,0.5", "--n", "8", "--out", str(out)
    )
    assert code == 3
    assert rep["status"] == "numerical-failure"
    assert rep["kind"] == "EvaluationAtPole"
    assert rep["error"] == "evaluation is not finite at point index 0 ((0.5+0j))"
    assert not out.exists()


def test_example_finite_set_rejects_empty_x(capsys, tmp_path):
    code, rep, _ = run_cli(
        capsys, "example", "finite_set", "--n-x", "0", "--out-dir", str(tmp_path / "ex")
    )
    assert code == 2
    assert rep["error"] == "x_points must not be empty"


def test_example_rational_angle_k_is_bounded(capsys, tmp_path):
    code, rep, _ = run_cli(
        capsys, "example", "rational_angle", "--k", "64", "--out-dir", str(tmp_path / "k64")
    )
    assert code == 0
    assert len(rep["advertised_sets"]) == 64
    for k in ("65", "100000000"):
        out_dir = tmp_path / f"k{k}"
        code, rep, _ = run_cli(
            capsys, "example", "rational_angle", "--k", k, "--out-dir", str(out_dir)
        )
        assert code == 2
        assert rep["error"] == f"k must be <= 64, got {k}"
        assert not (out_dir / "report.json").exists()


# ----------------------------------------------------------------- determinism


def test_reports_are_byte_identical_between_runs(capsys):
    code1 = main(["classify", "--c1=0.1,0.2,0.3", "--c2=0.3,-0.1,0.25"])
    out1 = capsys.readouterr().out
    code2 = main(["classify", "--c1=0.1,0.2,0.3", "--c2=0.3,-0.1,0.25"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_outputs_byte_identical(capsys, tmp_path, product_descriptor):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, "sample", "--f", product_descriptor, "--circle", "0.1,0,0.4",
            "--n", "64", "--out", str(a))
    run_cli(capsys, "sample", "--f", product_descriptor, "--circle", "0.1,0,0.4",
            "--n", "64", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
