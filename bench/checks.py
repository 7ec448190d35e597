"""Correctness checks made apart from the program.

Every check here evaluates functions with its own numpy code and never
calls into ``discphase``: Blaschke products, polynomials and rational
functions are evaluated from their zeros and coefficients, zero multisets
are matched by the benchmark's own rule, and two-circle configurations are
recomputed from centre distance and radii.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

#: exit code -> "status" field, as documented in the README's "Command line"
STATUS_OF_EXIT = {0: "ok", 1: "inconclusive", 2: "invalid-input", 3: "numerical-failure"}


# ---------------------------------------------------------------- evaluation


def blaschke_values(constant: complex, zeros, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, complex(constant))
    for a in zeros:
        a = complex(a)
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def poly_values(coeffs, z) -> np.ndarray:
    """Ascending coefficients, evaluated with numpy's descending-order polyval."""
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], np.asarray(z, dtype=complex))


def descriptor_values(desc: dict, z) -> np.ndarray:
    """Values of a ``blaschke`` / ``rational`` / ``product`` descriptor at z."""
    kind = desc["type"]
    if kind == "blaschke":
        return blaschke_values(
            complex(*desc["constant"]), [complex(*a) for a in desc["zeros"]], z
        )
    if kind == "rational":
        num = [complex(*c) for c in desc["num"]["coeffs"]]
        den = [complex(*c) for c in desc["den"]["coeffs"]]
        return poly_values(num, z) / poly_values(den, z)
    if kind == "product":
        out = np.ones(np.shape(z), dtype=complex)
        for factor in desc["factors"]:
            out = out * descriptor_values(factor, z)
        return out
    raise ValueError(f"descriptor type {kind!r} is outside the benchmark's inputs")


# ----------------------------------------------------------------- retrieval


def match_zeros(found, expected, tol: float) -> list[str]:
    """Check that two zero multisets agree within ``tol``.

    The generators keep zeros at least 0.2 apart and every tolerance used
    here is far below half of that, so at most one expected zero lies
    within ``tol`` of a found one: matching the closest pairs first finds
    the assignment whenever one exists.
    """
    found = np.asarray(list(found), dtype=complex)
    expected = np.asarray(list(expected), dtype=complex)
    if len(found) != len(expected):
        return [f"{len(found)} zeros recovered, {len(expected)} generated"]
    if len(found) == 0:
        return []
    dist = np.abs(found[:, None] - expected[None, :])
    free_f = np.ones(len(found), dtype=bool)
    free_e = np.ones(len(expected), dtype=bool)
    for flat in np.argsort(dist, axis=None):
        i, j = divmod(int(flat), len(expected))
        if free_f[i] and free_e[j] and dist[i, j] <= tol:
            free_f[i] = free_e[j] = False
    if free_f.any():
        worst = float(dist[free_f].min(axis=1).max())
        return [f"{int(free_f.sum())} zero(s) unmatched; nearest generated zero {worst:.3e} away (tol {tol:.1e})"]
    return []


def check_reconstruction(
    degree: int, zeros, expected_zeros, recon_values, true_values, zero_tol: float, modulus_tol: float
) -> list[str]:
    """Degree, zero multiset, and |reconstruction| / |f| - 1 at scattered points."""
    problems = []
    if degree != len(expected_zeros):
        problems.append(f"degree {degree} recovered, {len(expected_zeros)} generated")
    problems += match_zeros(zeros, expected_zeros, zero_tol)
    ratio = np.abs(np.asarray(recon_values)) / np.abs(np.asarray(true_values)) - 1.0
    worst = float(np.abs(ratio).max()) if ratio.size else 0.0
    if not worst <= modulus_tol:
        problems.append(f"|recon|/|f| - 1 reaches {worst:.3e} (tol {modulus_tol:.1e})")
    return problems


# ----------------------------------------------------------------- geometry


def circle_configuration(c1, c2) -> str:
    """Configuration of two circles (cx, cy, r) that are not near tangency."""
    d = float(np.hypot(c1[0] - c2[0], c1[1] - c2[1]))
    r_sum, r_diff = c1[2] + c2[2], abs(c1[2] - c2[2])
    if d > r_sum:
        return "externally_disjoint"
    if d < r_diff:
        return "internally_disjoint"
    return "intersecting"


def intersection_angle(c1, c2) -> float:
    """Crossing angle folded into (0, pi/2], by the law of cosines."""
    d2 = (c1[0] - c2[0]) ** 2 + (c1[1] - c2[1]) ** 2
    cos_theta = abs(c1[2] ** 2 + c2[2] ** 2 - d2) / (2.0 * c1[2] * c2[2])
    return float(np.arccos(min(1.0, cos_theta)))


# ----------------------------------------------------------------------- CLI


def check_report(stdout: str, code: int, expected_code: int, previous: str | None) -> tuple[dict | None, list[str]]:
    """Valid JSON, a status that matches the exit code, and repeatable output."""
    problems = []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON ({exc})"]
    if report.get("status") != STATUS_OF_EXIT.get(code):
        problems.append(f"status {report.get('status')!r} does not match exit code {code}")
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}: {report.get('error', '')}")
    if previous is not None and previous != stdout:
        problems.append("stdout differs from an earlier run of the identical command")
    return report, problems


def check_verify_report(report: dict, f_desc: dict, g_desc: dict, points, tol: float = 1e-9) -> list[str]:
    """Recompute ``max_deviation`` of |f| - |g| on the same points."""
    fv = np.abs(descriptor_values(f_desc, points))
    gv = np.abs(descriptor_values(g_desc, points))
    own = float(np.abs(fv - gv).max())
    got = report["report"]["max_deviation"]
    scale = max(float(fv.max()), float(gv.max()), 1.0)
    problems = []
    if abs(got - own) > 1e-12 * scale:
        problems.append(f"max_deviation {got!r} differs from the recomputed {own!r}")
    if report["report"]["n_points"] != len(points):
        problems.append(f"n_points {report['report']['n_points']} != {len(points)}")
    if report["report"]["within_tol"] != (own <= tol):
        problems.append("within_tol disagrees with the recomputed deviation")
    return problems
