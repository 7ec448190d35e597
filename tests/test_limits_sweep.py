"""A fixed-seed sweep of exact-data retrievals, each input sorted into one
of four classes.  Silent errors exist today (status ok, a zero off by more
than 1e-8); this test pins that no input returns the wrong degree with
status ok, and that no cell recovers fewer inputs than it does now."""

from collections import Counter

import numpy as np
import pytest

from discphase import (
    BlaschkeProduct,
    Circle,
    DiscPhaseError,
    RetrievalConfig,
    UNIT_CIRCLE,
    retrieve_two_circles,
    sample_modulus,
)

#: (n, degree, r, inputs) -> the ok count measured when the sweep was added;
#: the rest were then silent (7 at degree 8; 4 at degree 10, and 6 typed)
CELLS = {
    (256, 6, 0.55, 10): 10,
    (256, 8, 0.55, 10): 3,
    (256, 10, 0.5, 10): 0,
    (1024, 5, 0.6, 5): 5,
    (64, 4, 0.6, 10): 10,
}


def _zeros(rng, degree, r):
    """Zeros with |a| in [0.1, 0.8], pairwise 0.25 apart and 0.05 from |z| = r."""
    zeros = []
    while len(zeros) < degree:
        a = np.sqrt(rng.uniform(0.1**2, 0.8**2)) * np.exp(2j * np.pi * rng.uniform())
        if abs(abs(a) - r) >= 0.05 and all(abs(a - b) >= 0.25 for b in zeros):
            zeros.append(complex(a))
    return zeros


def _classify(n, degree, r, rng):
    b = BlaschkeProduct(1.0, tuple(_zeros(rng, degree, r)))
    c = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())

    def f(z):
        return b(z) * (1.0 + c * np.asarray(z, dtype=complex))

    try:
        result = retrieve_two_circles(
            sample_modulus(f, UNIT_CIRCLE, n),
            sample_modulus(f, Circle(0.0, r), n),
            RetrievalConfig(degree_max=12),
        )
    except DiscPhaseError:
        return "typed"
    if result.degree_used != degree:
        return "wrong degree"
    if degree == 0:
        return "ok"
    gap = np.abs(np.subtract.outer(np.array(b.zeros), np.array(result.blaschke.zeros)))
    return "ok" if max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-8 else "silent"


@pytest.mark.parametrize("cell", list(CELLS), ids=lambda c: "n{}-deg{}-r{}".format(*c))
def test_exact_data_sweep_has_no_wrong_degree(cell):
    n, degree, r, inputs = cell
    rng = np.random.default_rng([1234, n, degree, int(100 * r)])
    counts = Counter(_classify(n, degree, r, rng) for _ in range(inputs))
    assert counts["wrong degree"] == 0, counts
    assert counts["ok"] >= CELLS[cell], counts
