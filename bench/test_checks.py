"""The benchmark's correctness checks accept real outputs and reject corrupted ones.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pytest  # noqa: E402

import discphase  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def retrieval():
    wl = workloads.retrieve_deep()
    case = wl.prepare(3, None)[0]
    return wl, case, wl.run(case)


def test_clean_retrieval_passes(retrieval):
    wl, case, output = retrieval
    assert wl.check(case, output) == []


def test_perturbed_zero_is_rejected(retrieval):
    wl, case, (result, values) = retrieval
    zeros = list(result.blaschke.zeros)
    zeros[0] += 1e-3
    corrupted = dataclasses.replace(result, blaschke=discphase.BlaschkeProduct(1.0, tuple(zeros)))
    problems = wl.check(case, (corrupted, values))
    assert any("unmatched" in p for p in problems)


def test_scaled_modulus_is_rejected(retrieval):
    wl, case, (result, values) = retrieval
    scaled = values.copy()
    scaled[5] *= 1.05
    problems = wl.check(case, (result, scaled))
    assert any("|recon|/|f|" in p for p in problems)


def test_fixed_degree10_inputs_fail_with_degree_cap(retrieval):
    wl = retrieval[0]
    for case in wl.prepare(3, None)[-len(workloads.DEGREE10_CASES):]:
        with pytest.raises(discphase.DegreeCapExceeded):
            wl.run(case)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    wl = workloads.CliWorkload()
    s = wl.prepare(5, tmp_path_factory.mktemp("cli"))[0]
    return wl, s, wl.run(s)


def _edit(outputs, k, change):
    """Outputs with command k's JSON report passed through ``change``."""
    code, stdout = outputs[k]
    report = json.loads(stdout)
    change(report)
    edited = list(outputs)
    edited[k] = (code, json.dumps(report, indent=2) + "\n")
    return edited


def _check_fresh(wl, s, outputs):
    s.previous = {}
    return wl.check(s, outputs)


def test_clean_session_passes(session):
    wl, s, outputs = session
    assert _check_fresh(wl, s, outputs) == []


def test_status_not_matching_exit_code_is_rejected(session):
    wl, s, outputs = session
    problems = _check_fresh(wl, s, _edit(outputs, 7, lambda r: r.update(status="inconclusive")))
    assert any("does not match exit code" in p for p in problems)


def test_wrong_verify_deviation_is_rejected(session):
    wl, s, outputs = session
    scale = lambda r: r["report"].update(max_deviation=r["report"]["max_deviation"] * 1.001)  # noqa: E731
    problems = _check_fresh(wl, s, _edit(outputs, 5, scale))
    assert any("differs from the recomputed" in p for p in problems)


def test_wrong_classification_is_rejected(session):
    wl, s, outputs = session
    problems = _check_fresh(wl, s, _edit(outputs, 7, lambda r: r.update(configuration="externally_tangent")))
    assert any(p.startswith("classify") for p in problems)


def test_wrong_certificate_verdict_is_rejected(session):
    wl, s, outputs = session
    flip = lambda r: r["certificate"].update(verdict="equal_on_circle")  # noqa: E731
    problems = _check_fresh(wl, s, _edit(outputs, 4, flip))
    assert any("unequal pair" in p for p in problems)


def test_changed_repeat_output_is_rejected(session):
    wl, s, outputs = session
    _check_fresh(wl, s, outputs)
    edited = list(outputs)
    edited[0] = (outputs[0][0], outputs[0][1].replace("\n", "\n ", 1))
    problems = wl.check(s, edited)
    assert any("differs from an earlier run" in p for p in problems)


def test_non_json_output_is_rejected(session):
    wl, s, outputs = session
    edited = list(outputs)
    edited[2] = (0, "Traceback (most recent call last):\n")
    assert any("not JSON" in p for p in _check_fresh(wl, s, edited))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
