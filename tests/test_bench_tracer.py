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


def test_tracer_notes_give_kernel_fit_and_certify_metrics(monkeypatch):
    # the notes read OuterFunction.boundary.n, ModulusFit.rank_deficient and
    # certify's point count; a rename there breaks only a call that takes a note
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    b = discphase.BlaschkeProduct(1.0, (0.3,))
    boundary = discphase.UNIT_CIRCLE.sample_points(64)
    inner = discphase.Circle(0.0, 0.5).sample_points(64)
    points = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        # names bound before install are not wrapped: call through the module
        result = discphase.retrieval.retrieve_two_circles(
            discphase.retrieval.ModulusData(discphase.UNIT_CIRCLE, boundary, np.abs(b(boundary))),
            discphase.retrieval.ModulusData(discphase.Circle(0.0, 0.5), inner, np.abs(b(inner))),
        )
        result(np.array([0.1, 0.2j]))
        discphase.retrieval.certify_finite_points(b, b.with_constant(1j), points)
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["outer.kernel_mb"][0] > 0
    assert metrics["degree_search.fits_per_op"][0] > 0
    assert metrics["certify.points"][0] == len(points)
