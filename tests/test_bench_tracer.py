"""The benchmark's tracer (``bench/spans.py``) wraps library attributes by name.

Renaming or deleting one of them breaks ``bench/run.py --trace 1`` at
install time; this test finds that without running the benchmark.
"""

import importlib
import os
from pathlib import Path

import numpy as np

import discphase.retrieval
from discphase import ModulusSamples

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_counts_csv_bytes_and_uninstalls(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    original = discphase.retrieval.retrieve_two_circles
    path = tmp_path / "samples.csv"
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert discphase.retrieval.retrieve_two_circles is not original
        tracer.begin_op(0)
        ModulusSamples(np.array([0.5, 0.5j]), np.array([1.0, 2.0])).to_csv(path)
        ModulusSamples.from_csv(path)
        tracer.end_op()
    finally:
        tracer.uninstall()
    # the CSV codec opens its files in a module whose ``open`` the tracer counts
    size = os.path.getsize(path)
    assert (tracer.bytes_read, tracer.bytes_written) == (size, size)
    assert discphase.retrieval.retrieve_two_circles is original
    for modname in spans.IO_MODULES:
        assert "open" not in vars(importlib.import_module(modname))
