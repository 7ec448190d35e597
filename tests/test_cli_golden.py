"""CLI stdout and written files, byte for byte, against ``tests/golden/``.

Each case runs ``discphase.cli.main`` in process, in a fresh directory that
holds only the input descriptors, so every path in a report is relative.
Its stdout, its exit code and every file it writes are compared with the
golden copies.  The last digits of a ``retrieve`` result come from LAPACK
and can move with the BLAS thread count, so its cases (``RETRIEVE_CASES``)
compare the report keys, the exit code and the degree exactly, the zeros
within 1e-10, and the outer boundary values and ``_outer.csv``, which echo
the input, byte for byte; each residual must be at most the tolerance.

To rewrite the golden files after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from discphase.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

INPUTS = {
    "b1.json": {"type": "blaschke", "constant": [1, 0], "zeros": [[0.3, 0.1], [-0.2, 0.4]]},
    # b1 rotated by a unimodular constant, zeros listed in the other order
    "b1_rot.json": {"type": "blaschke", "constant": [0, 1], "zeros": [[-0.2, 0.4], [0.3, 0.1]]},
    # reflected pole at 1 / conj(0.5) = 2
    "b2.json": {"type": "blaschke", "constant": [1, 0], "zeros": [[0.5, 0.0]]},
    "product.json": {
        "type": "product",
        "factors": [
            {"type": "blaschke", "constant": [1, 0], "zeros": [[0.3, 0]]},
            {
                "type": "rational",
                "num": {"type": "poly", "coeffs": [[1, 0], [0.5, 0]]},
                "den": {"type": "poly", "coeffs": [[1, 0]]},
            },
        ],
    },
    "rational.json": {
        "type": "rational",
        "num": {"type": "poly", "coeffs": [[1, 0]]},
        "den": {"type": "poly", "coeffs": [[-0.5, 0], [1, 0]]},  # pole at z = 0.5
    },
    # (z - 1) / 2 vanishes at the t = 0 node of every unit-circle grid
    "zero_on_t.json": {
        "type": "rational",
        "num": {"type": "poly", "coeffs": [[-0.5, 0], [0.5, 0]]},
        "den": {"type": "poly", "coeffs": [[1, 0]]},
    },
    # (z - 1) / 2 - 1e-11: positive on the unit circle, but below the 1e-10 zero rule
    "near_zero_on_t.json": {
        "type": "rational",
        "num": {"type": "poly", "coeffs": [[-0.50000000001, 0], [0.5, 0]]},
        "den": {"type": "poly", "coeffs": [[1, 0]]},
    },
    # z / (z - 0.5): a Moebius map of the identity with its pole at 0.5
    "moebius.json": {
        "type": "moebius_of",
        "map": {"a": [1, 0], "b": [0, 0], "c": [1, 0], "d": [-0.5, 0]},
        "inner": {"type": "poly", "coeffs": [[0, 0], [1, 0]]},
    },
    # poles at i(-1/2 + 2n)
    "strip.json": {"type": "strip"},
    # the degree-0 Blaschke product 1
    "one.json": {"type": "blaschke", "constant": [1, 0], "zeros": []},
}

POINTS_CSV = "re,im\n0.5,0.0\n0.0,0.5\n-0.5,0.0\n0.0,-0.5\n0.5,0.0\n0.25,0.25\n"

#: 16-node unit-circle moduli with an exact zero at t = 0, and 16 unit moduli on 0.5 T
_T16 = [2 * np.pi * k / 16 for k in range(16)]
ZERO_T_CSV = "t,modulus\n" + "".join(f"{t!r},{float(k > 0)!r}\n" for k, t in enumerate(_T16))
ONE_R_CSV = "index,re,im,modulus\n" + "".join(
    f"{k},{float(0.5 * np.cos(t))!r},{float(0.5 * np.sin(t))!r},1.0\n" for k, t in enumerate(_T16)
)

CASES = {
    # sample
    "sample_boundary": ["sample", "--f", "product.json", "--circle", "0,0,1", "--n", "32", "--out", "t.csv"],
    "sample_inner": ["sample", "--f", "product.json", "--circle", "0,0,0.5", "--n", "32", "--out", "r.csv"],
    "sample_offset": [
        "sample", "--f", "b1.json", "--circle", "0.1,0.2,0.3", "--n", "7",
        "--phase-offset", "0.3", "--out", "s.csv",
    ],
    "sample_offset_unit": [
        "sample", "--f", "b1.json", "--circle", "0,0,1", "--n", "8", "--phase-offset", "0.5",
        "--out", "s.csv",
    ],
    "sample_n_zero": ["sample", "--f", "b1.json", "--circle", "0,0,0.5", "--n", "0", "--out", "s.csv"],
    "sample_nan_offset": [
        "sample", "--f", "b1.json", "--circle", "0,0,0.5", "--n", "8", "--phase-offset", "nan",
        "--out", "s.csv",
    ],
    "sample_pole": ["sample", "--f", "rational.json", "--circle", "0,0,0.5", "--n", "8", "--out", "s.csv"],
    # unit-circle grids that `retrieve` rejects are not written
    "sample_boundary_coarse": ["sample", "--f", "b1.json", "--circle", "0,0,1", "--n", "8", "--out", "t.csv"],
    "sample_boundary_zero": [
        "sample", "--f", "zero_on_t.json", "--circle", "0,0,1", "--n", "32", "--out", "t.csv",
    ],
    "sample_boundary_near_zero": [
        "sample", "--f", "near_zero_on_t.json", "--circle", "0,0,1", "--n", "64", "--out", "t.csv",
    ],
    # retrieve applies the same zero rule to a boundary file
    "retrieve_boundary_zero": [
        "retrieve", "--boundary", "zero_t.csv", "--inner", "one_r.csv", "--r", "0.5",
    ],
    "sample_bad_circle": ["sample", "--f", "b1.json", "--circle", "0,0,-1", "--n", "8", "--out", "s.csv"],
    # certify
    "certify_equal": ["certify", "--f", "b1.json", "--g", "b1_rot.json", "--r", "0.5", "--points", "16"],
    "certify_distinct": ["certify", "--f", "b1.json", "--g", "b2.json", "--r", "0.5", "--points", "16"],
    "certify_few_points": ["certify", "--f", "b1.json", "--g", "b2.json", "--r", "0.5", "--points", "5"],
    "certify_bad_r": ["certify", "--f", "b1.json", "--g", "b2.json", "--r", "1.5", "--points", "16"],
    "certify_not_blaschke": ["certify", "--f", "product.json", "--g", "b2.json", "--r", "0.5", "--points", "16"],
    # verify, every set kind
    "verify_circle": ["verify", "--f", "b1.json", "--g", "b1_rot.json", "--set", "circle:0,0,0.5", "--n", "64"],
    "verify_circle_gap": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "circle:0.1,0,0.4", "--n", "50"],
    "verify_circle_n0": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "circle:0,0,0.5", "--n", "0"],
    "verify_circle_n1": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "circle:0,0,0.5", "--n", "1"],
    "verify_segment": [
        "verify", "--f", "b1.json", "--g", "b2.json", "--set", "segment:-0.9,0.1,0.8,-0.3", "--n", "33",
    ],
    "verify_segment_n0": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "segment:0,0,1,0", "--n", "0"],
    "verify_segment_n1": [
        "verify", "--f", "b1.json", "--g", "b2.json", "--set", "segment:0.2,-0.1,0.5,0.5", "--n", "1",
    ],
    "verify_segment_nan": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "segment:0,nan,1,0", "--n", "8"],
    "verify_segment_nan_n0": [
        "verify", "--f", "b1.json", "--g", "b2.json", "--set", "segment:0,nan,1,0", "--n", "0",
    ],
    "verify_segment_malformed": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "segment:0,0,1"],
    "verify_segment_pole": ["verify", "--f", "b2.json", "--g", "b1.json", "--set", "segment:0,0,3,0", "--n", "7"],
    "verify_moebius_pole": ["verify", "--f", "moebius.json", "--g", "b1.json", "--set", "segment:0,0,1,0", "--n", "5"],
    "verify_strip_pole": [
        "verify", "--f", "strip.json", "--g", "b1.json", "--set", "segment:-1,-0.5,1,-0.5", "--n", "5",
    ],
    # exp(pi s) overflows past Re s = 226, where the map is close to -1
    "verify_strip_far": [
        "verify", "--f", "strip.json", "--g", "one.json", "--set", "segment:200,0.5,300,0.5", "--n", "3",
    ],
    "verify_file": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "file:points.csv"],
    "verify_file_missing": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "file:nothing.csv"],
    "verify_product": [
        "verify", "--f", "product.json", "--g", "rational.json", "--set", "circle:0,0,0.9", "--n", "20",
        "--tol", "0.5",
    ],
    "verify_bad_kind": ["verify", "--f", "b1.json", "--g", "b2.json", "--set", "disc:0,0,1"],
    # classify
    "classify_concentric": ["classify", "--c1", "0,0,0.8", "--c2", "0,0,0.2"],
    "classify_right_angle": ["classify", "--c1=0.2357022603955158,0,0.3333333333333333",
                             "--c2=-0.2357022603955158,0,0.3333333333333333"],
    "classify_crossing": ["classify", "--c1", "0,0,0.25", "--c2", "0.3,0,0.25"],
    "classify_external": ["classify", "--c1=0.5,0,0.2", "--c2=-0.5,0,0.2"],
    "classify_identical": ["classify", "--c1", "0,0,0.5", "--c2", "0,0,0.5"],
    "classify_outside": ["classify", "--c1", "0.9,0,0.3", "--c2", "0,0,0.2"],
    # example, every family
    "example_perpendicular_lines": ["example", "perpendicular_lines", "--out-dir", "out"],
    "example_rational_angle": ["example", "rational_angle", "--k", "4", "--out-dir", "out"],
    "example_finite_set": ["example", "finite_set", "--n-x", "3", "--out-dir", "out"],
    "example_right_angle_circles": ["example", "right_angle_circles", "--out-dir", "out"],
    "example_strip": ["example", "strip", "--out-dir", "out"],
    "example_inverse_points": ["example", "inverse_points", "--out-dir", "out"],
    "example_finite_set_empty": ["example", "finite_set", "--n-x", "0", "--out-dir", "out"],
}


def _write_inputs(workdir: Path) -> None:
    for name, obj in INPUTS.items():
        (workdir / name).write_text(json.dumps(obj))
    (workdir / "points.csv").write_text(POINTS_CSV)
    (workdir / "zero_t.csv").write_text(ZERO_T_CSV)
    (workdir / "one_r.csv").write_text(ONE_R_CSV)


def _sampled(descriptor: str, n: int) -> list[list[str]]:
    """``sample`` runs writing |descriptor| on T (t.csv) and on 0.5 T (r.csv)."""
    return [
        ["sample", "--f", descriptor, "--circle", circle, "--n", str(n), "--out", out]
        for circle, out in (("0,0,1", "t.csv"), ("0,0,0.5", "r.csv"))
    ]


RETRIEVE = ["retrieve", "--boundary", "t.csv", "--inner", "r.csv", "--r", "0.5"]

#: name -> (runs that write the input CSVs, retrieve argv)
RETRIEVE_CASES = {
    "retrieve_product": (_sampled("product.json", 32), RETRIEVE),
    "retrieve_product_out": (_sampled("product.json", 32), [*RETRIEVE, "--out", "res.json"]),
    "retrieve_blaschke": (_sampled("b1.json", 32), [*RETRIEVE, "--degree-max", "4", "--tol", "1e-10"]),
}

#: retrieve report fields that need only be at most the tolerance
_RESIDUALS = {"residual_T", "residual_rT", "forward_residual"}


def _files(workdir: Path) -> dict[str, bytes]:
    return {
        path.relative_to(workdir).as_posix(): path.read_bytes()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }


def run_case(argv: list[str], workdir: Path, setup=()) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout and written files (by relative path) of one CLI run.

    The runs in ``setup`` go first, and the files they write count as inputs.
    """
    _write_inputs(workdir)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for pre in setup:
                assert main(pre) == 0, pre
        inputs = _files(workdir)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {rel: data for rel, data in _files(workdir).items() if rel not in inputs}
    return code, stdout.getvalue(), written


def _golden(name: str) -> tuple[int, str, dict[str, bytes]]:
    code = json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    files = GOLDEN / name / "files"
    written = _files(files) if files.is_dir() else {}
    return code, (GOLDEN / name / "stdout").read_text(encoding="utf-8"), written


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, stdout, written = run_case(CASES[name], tmp_path)
    expected_code, expected_stdout, expected = _golden(name)
    assert code == expected_code
    assert stdout == expected_stdout
    assert sorted(written) == sorted(expected)
    for rel, data in written.items():
        assert data == expected[rel], rel


def _assert_same_retrieval(got, want, tol: float) -> None:
    """``got`` has the keys of the golden report ``want`` and agrees with it."""
    if not isinstance(want, dict):
        assert got == want
        return
    assert list(got) == list(want)
    for key, value in want.items():
        if key in _RESIDUALS:
            assert 0.0 <= got[key] <= tol, key
        elif key == "zeros":
            assert len(got[key]) == len(value)
            gap = np.abs(np.subtract(got[key], value).reshape(-1, 2) @ [1, 1j]).max(initial=0.0)
            assert gap <= 1e-10, (got[key], value)
        else:
            _assert_same_retrieval(got[key], value, tol)


@pytest.mark.parametrize("name", sorted(RETRIEVE_CASES))
def test_retrieve_matches_golden(name, tmp_path):
    setup, argv = RETRIEVE_CASES[name]
    code, stdout, written = run_case(argv, tmp_path, setup)
    expected_code, expected_stdout, expected = _golden(name)
    assert code == expected_code == 0
    want = json.loads(expected_stdout)
    tol = want["diagnostics"]["residual_tol"]
    _assert_same_retrieval(json.loads(stdout), want, tol)
    assert sorted(written) == sorted(expected)
    for rel, data in written.items():
        if rel.endswith(".json"):
            _assert_same_retrieval(json.loads(data), json.loads(expected[rel]), tol)
        else:
            assert data == expected[rel], rel


def test_retrieve_recovers_degree_of_sampled_product(tmp_path):
    for circle, out in (("0,0,1", "t.csv"), ("0,0,0.5", "r.csv")):
        argv = ["sample", "--f", "product.json", "--circle", circle, "--n", "256", "--out", out]
        assert run_case(argv, tmp_path)[0] == 0
    code, stdout, _ = run_case(
        ["retrieve", "--boundary", "t.csv", "--inner", "r.csv", "--r", "0.5"], tmp_path
    )
    assert code == 0
    assert json.loads(stdout)["degree"] == 1


def regenerate() -> None:
    """Rewrite ``tests/golden/`` from the current program."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    codes = {}
    cases = {name: ((), argv) for name, argv in CASES.items()}
    for name, (setup, argv) in sorted({**cases, **RETRIEVE_CASES}.items()):
        with tempfile.TemporaryDirectory() as tmp:
            codes[name], stdout, written = run_case(argv, Path(tmp), setup)
        (GOLDEN / name).mkdir(parents=True)
        (GOLDEN / name / "stdout").write_text(stdout, encoding="utf-8")
        for rel, data in written.items():
            target = GOLDEN / name / "files" / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
