"""The benchmark's three workloads: inputs made from a seed, operations, checks.

A workload turns a seed into a fixed list of cases (one round).  Each case
is one operation: ``run`` is the timed call into the program and ``check``
compares its output with the independent computations in ``checks``.  The
program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import discphase
import discphase.cli


def _unit(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def draw_zeros(rng, degree: int, radius: float, a_min: float, a_max: float, sep: float, gap: float):
    """``degree`` zeros with a_min <= |a| <= a_max, pairwise at least ``sep``
    apart and at least ``gap`` away from the inner circle |z| = radius."""
    zeros: list[complex] = []
    while len(zeros) < degree:
        a = np.sqrt(rng.uniform(a_min**2, a_max**2)) * _unit(rng)
        if abs(abs(a) - radius) < gap or any(abs(a - b) < sep for b in zeros):
            continue
        zeros.append(complex(a))
    return zeros


def outer_coeffs(rng, count: int, c_max: float = 0.5):
    """Coefficients c of outer factors (1 + c z), |c| <= c_max."""
    return [complex(c_max * np.sqrt(rng.uniform()) * _unit(rng)) for _ in range(count)]


def function_values(zeros, cs, z, constant: complex = 1.0) -> np.ndarray:
    """f = constant * B(zeros) * prod (1 + c z), evaluated by the benchmark."""
    out = checks.blaschke_values(constant, zeros, z)
    for c in cs:
        out = out * (1.0 + c * np.asarray(z, dtype=complex))
    return out


def scattered_points(rng, count: int, zeros, rho: float = 0.95, clearance: float = 0.02):
    """Points with |z| <= rho, at least ``clearance`` from every zero, so that
    |reconstruction| / |f| is well defined."""
    pts: list[complex] = []
    while len(pts) < count:
        p = rho * np.sqrt(rng.uniform()) * _unit(rng)
        if zeros and min(abs(p - a) for a in zeros) < clearance:
            continue
        pts.append(complex(p))
    return np.array(pts)


# ------------------------------------------------------------------ retrieval


@dataclass
class RetrievalCase:
    label: str
    zeros: list
    data_boundary: object
    data_inner: object
    config: object
    scatter: np.ndarray
    true_scatter: np.ndarray


class RetrievalWorkload:
    """``retrieve_two_circles`` on exact data, then the reconstruction at
    scattered points."""

    def __init__(self, name, n, specs, n_scatter, zero_tol, modulus_tol, degree_max=8, fixed=()):
        self.name = name
        self.n = n
        self.specs = specs  # (degree, r_low, r_high, outer factor count) per seeded case
        self.n_scatter = n_scatter
        self.zero_tol = zero_tol
        self.modulus_tol = modulus_tol
        self.degree_max = degree_max
        self.fixed = fixed  # (label, zeros, cs, r): same inputs for every seed

    def _case(self, label, zeros, cs, r, rng) -> RetrievalCase:
        boundary = discphase.UNIT_CIRCLE.sample_points(self.n)
        inner = discphase.Circle(0.0, r).sample_points(self.n)
        scatter = scattered_points(rng, self.n_scatter, zeros)
        return RetrievalCase(
            label=label,
            zeros=zeros,
            data_boundary=discphase.ModulusData(
                discphase.UNIT_CIRCLE, boundary, np.abs(function_values(zeros, cs, boundary))
            ),
            data_inner=discphase.ModulusData(
                discphase.Circle(0.0, r), inner, np.abs(function_values(zeros, cs, inner))
            ),
            config=discphase.RetrievalConfig(degree_max=self.degree_max),
            scatter=scatter,
            true_scatter=function_values(zeros, cs, scatter),
        )

    def prepare(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, self.n])
        cases = []
        for k, (degree, r_low, r_high, n_outer) in enumerate(self.specs):
            r = float(rng.uniform(r_low, r_high)) if r_high > r_low else r_low
            zeros = draw_zeros(rng, degree, r, 0.1, 0.8, sep=0.25, gap=0.15)
            cases.append(self._case(f"seeded{k}:deg{degree}", zeros, outer_coeffs(rng, n_outer), r, rng))
        fixed_rng = np.random.default_rng(0)  # scatter points of the fixed cases
        for label, zeros, cs, r in self.fixed:
            cases.append(self._case(label, list(zeros), list(cs), r, fixed_rng))
        return cases

    def run(self, case: RetrievalCase):
        result = discphase.retrieve_two_circles(case.data_boundary, case.data_inner, case.config)
        return result, result(case.scatter)

    def check(self, case: RetrievalCase, output) -> list:
        result, values = output
        return checks.check_reconstruction(
            result.degree_used,
            result.blaschke.zeros,
            case.zeros,
            values,
            case.true_scatter,
            self.zero_tol,
            self.modulus_tol,
        )


#: Exact degree-10 inputs at r = 0.5, the same for every seed.
#: `degree_search` raises DegreeCapExceeded on both, and keeps doing so when
#: the moduli are perturbed by relative noise of 1e-15 to 1e-10 and with one
#: or two BLAS threads, so the failure does not hinge on the last bits of
#: the arithmetic.
DEGREE10_CASES = (
    (
        "fixed:deg10:a",
        (-0.037-0.232j, -0.106+0.073j, -0.345+0.631j, 0.35-0.69j, -0.509-0.554j,
         0.316-0.081j, 0.625+0.445j, -0.257-0.697j, -0.116+0.323j, -0.631-0.232j),
        (-0.28-0.16j,),
        0.5,
    ),
    (
        "fixed:deg10:b",
        (-0.029-0.16j, -0.221+0.62j, 0.62+0.293j, -0.164+0.204j, 0.57-0.421j,
         -0.56+0.373j, 0.695-0.021j, -0.332-0.026j, 0.241-0.654j, 0.111+0.198j),
        (0.28-0.17j,),
        0.5,
    ),
)


def retrieve_wide() -> RetrievalWorkload:
    radii = (0.3, 0.5, 0.7, 0.9)
    specs = [(k % 4, radii[(k + k // 4) % 4], radii[(k + k // 4) % 4], 1 + k % 3) for k in range(8)]
    return RetrievalWorkload(
        "retrieve_wide", n=4096, specs=specs, n_scatter=1000, zero_tol=1e-8, modulus_tol=1e-8
    )


def retrieve_deep() -> RetrievalWorkload:
    r_range = {5: (0.5, 0.7), 6: (0.5, 0.7), 7: (0.6, 0.7), 8: (0.65, 0.7)}
    specs = [(d, *r_range[d], 1) for _ in range(20) for d in (5, 7, 6, 7, 8)]
    return RetrievalWorkload(
        "retrieve_deep",
        n=256,
        specs=specs,
        n_scatter=64,
        zero_tol=1e-4,
        modulus_tol=1e-2,
        degree_max=10,
        fixed=DEGREE10_CASES,
    )


# ------------------------------------------------------------------------ CLI


EXAMPLE_FAMILIES = (
    "perpendicular_lines",
    "rational_angle",
    "finite_set",
    "right_angle_circles",
    "strip",
    "inverse_points",
)


def _pairs(values) -> list:
    return [[float(complex(v).real), float(complex(v).imag)] for v in values]


def _blaschke_desc(constant, zeros) -> dict:
    return {"type": "blaschke", "constant": _pairs([constant])[0], "zeros": _pairs(zeros)}


def _coeffs_of_factors(cs) -> list:
    """Ascending coefficients of prod (1 + c z)."""
    coeffs = np.array([1.0 + 0j])
    for c in cs:
        coeffs = np.convolve(coeffs, [1.0, c])
    return list(coeffs)


def _rational_desc(num_cs, den_cs) -> dict:
    return {
        "type": "rational",
        "num": {"type": "poly", "coeffs": _pairs(_coeffs_of_factors(num_cs))},
        "den": {"type": "poly", "coeffs": _pairs(_coeffs_of_factors(den_cs))},
    }


def _random_circle(rng):
    r = rng.uniform(0.1, 0.45)
    c = rng.uniform(0.0, 0.95 - r) * _unit(rng)
    return (float(c.real), float(c.imag), float(r))


def _circle_pair(rng):
    """Two circles inside the disc, kept 1e-3 away from tangency."""
    while True:
        c1, c2 = _random_circle(rng), _random_circle(rng)
        d = float(np.hypot(c1[0] - c2[0], c1[1] - c2[1]))
        if min(abs(d - (c1[2] + c2[2])), abs(d - abs(c1[2] - c2[2]))) > 1e-3:
            return c1, c2


def _circle_arg(flag, c) -> str:
    return f"{flag}={c[0]!r},{c[1]!r},{c[2]!r}"


@dataclass
class Session:
    label: str
    dir: Path
    r: float
    degree: int
    zeros: list
    f: dict
    g_equal: dict
    g_unequal: dict
    b_equal: tuple
    b_unequal: dict
    points: np.ndarray
    circles: tuple
    family: str
    commands: list = field(default_factory=list)
    expected_codes: list = field(default_factory=list)
    previous: dict = field(default_factory=dict)


class CliWorkload:
    """One in-process session of ``discphase.cli.main`` per operation."""

    name = "cli_batch"
    n = 1024
    n_points = 1000
    certify_points = 1000

    def prepare(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, 7])
        sessions = []
        for k, family in enumerate(EXAMPLE_FAMILIES):
            r = (0.5, 0.7)[k % 2]
            degree = 1 + k % 3
            zeros = draw_zeros(rng, degree, r, 0.1, 0.8, sep=0.25, gap=0.15)
            constant = _unit(rng)
            num_cs, den_cs = outer_coeffs(rng, 2), outer_coeffs(rng, 1)
            moved = list(zeros)
            moved[0] = moved[0] * 0.8 + 0.05
            rational = _rational_desc(num_cs, den_cs)
            session = Session(
                label=f"session{k}:{family}",
                dir=workdir / f"session{k}",
                r=r,
                degree=degree,
                zeros=zeros,
                f={"type": "product", "factors": [_blaschke_desc(constant, zeros), rational]},
                g_equal={"type": "product", "factors": [_blaschke_desc(_unit(rng), zeros[::-1]), rational]},
                g_unequal={"type": "product", "factors": [_blaschke_desc(constant, moved), rational]},
                b_equal=(_blaschke_desc(constant, zeros), _blaschke_desc(_unit(rng), zeros[::-1])),
                b_unequal=_blaschke_desc(constant, moved),
                points=0.9 * np.sqrt(rng.uniform(size=self.n_points)) * np.exp(2j * np.pi * rng.uniform(size=self.n_points)),
                circles=_circle_pair(rng),
                family=family,
            )
            self._write(session)
            sessions.append(session)
        return sessions

    def _write(self, s: Session) -> None:
        s.dir.mkdir(parents=True, exist_ok=True)
        files = {
            "f.json": s.f,
            "g_equal.json": s.g_equal,
            "g_unequal.json": s.g_unequal,
            "b1.json": s.b_equal[0],
            "b2.json": s.b_equal[1],
            "b3.json": s.b_unequal,
        }
        for name, obj in files.items():
            (s.dir / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with open(s.dir / "points.csv", "w", encoding="utf-8") as fh:
            fh.write("re,im\n")
            for p in s.points:
                fh.write(f"{float(p.real)!r},{float(p.imag)!r}\n")
        n, r, k = str(self.n), repr(s.r), str(self.certify_points)
        s.commands = [
            ["sample", "--f", "f.json", "--circle", "0,0,1", "--n", n, "--out", "boundary.csv"],
            ["sample", "--f", "f.json", "--circle", f"0,0,{r}", "--n", n, "--out", "inner.csv"],
            ["retrieve", "--boundary", "boundary.csv", "--inner", "inner.csv", "--r", r, "--out", "result.json"],
            ["certify", "--f", "b1.json", "--g", "b2.json", "--r", r, "--points", k],
            ["certify", "--f", "b1.json", "--g", "b3.json", "--r", r, "--points", k],
            ["verify", "--f", "f.json", "--g", "g_unequal.json", "--set", "file:points.csv"],
            ["verify", "--f", "f.json", "--g", "g_equal.json", "--set", f"circle:0,0,{r}", "--n", n],
            ["classify", _circle_arg("--c1", s.circles[0]), _circle_arg("--c2", s.circles[1])],
            ["example", s.family, "--out-dir", "example"],
        ]
        s.expected_codes = [0, 0, 0, 0, 1, 1, 0, 0, 0]

    def run(self, s: Session):
        outputs = []
        cwd = os.getcwd()
        os.chdir(s.dir)
        try:
            for argv in s.commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    try:
                        code = discphase.cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the command line
                        code = exc.code
                outputs.append((code, buf.getvalue()))
        finally:
            os.chdir(cwd)
        return outputs

    def check(self, s: Session, outputs) -> list:
        problems = []
        reports = []
        for k, ((code, stdout), expected) in enumerate(zip(outputs, s.expected_codes)):
            report, probs = checks.check_report(stdout, code, expected, s.previous.get(k))
            s.previous.setdefault(k, stdout)
            problems += [f"{s.commands[k][0]}: {p}" for p in probs]
            reports.append(report)
        if problems or any(r is None for r in reports):
            return problems
        try:
            problems += self._check_outputs(s, reports)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        return problems

    def _check_outputs(self, s: Session, reports) -> list:
        problems = []
        n, r = self.n, s.r
        nodes = np.exp(2j * np.pi * np.arange(n) / n)
        abs_f_boundary = np.abs(checks.descriptor_values(s.f, nodes))
        # sample: the CSVs hold |f| on the two grids
        t, m = np.loadtxt(s.dir / "boundary.csv", delimiter=",", skiprows=1, unpack=True)
        if np.abs(t - 2 * np.pi * np.arange(n) / n).max() > 1e-12 or not np.allclose(m, abs_f_boundary, rtol=1e-12, atol=0):
            problems.append("sample: boundary.csv is not |f| on the unit-circle grid")
        _, re, im, m = np.loadtxt(s.dir / "inner.csv", delimiter=",", skiprows=1, unpack=True)
        pts = re + 1j * im
        if np.abs(pts - r * nodes).max() > 1e-12 or not np.allclose(m, np.abs(checks.descriptor_values(s.f, pts)), rtol=1e-12, atol=0):
            problems.append("sample: inner.csv is not |f| on the inner-circle grid")
        # retrieve: degree, zeros, residuals, and the outer factor on the circle
        rep = reports[2]
        problems += [f"retrieve: {p}" for p in checks.match_zeros(
            [complex(*a) for a in rep["blaschke"]["zeros"]], s.zeros, 1e-8)]
        if rep["degree"] != s.degree:
            problems.append(f"retrieve: degree {rep['degree']} != {s.degree}")
        if not max(rep["residual_T"], rep["residual_rT"]) <= 1e-7:
            problems.append("retrieve: residuals above the 1e-7 tolerance")
        _, outer = np.loadtxt(s.dir / rep["outer_boundary"]["csv"], delimiter=",", skiprows=1, unpack=True)
        if not np.allclose(outer, abs_f_boundary, rtol=1e-12, atol=0):
            problems.append("retrieve: outer boundary modulus is not |f| on the unit circle")
        with open(s.dir / "result.json", encoding="utf-8") as fh:
            if json.load(fh) != rep:
                problems.append("retrieve: result.json differs from the stdout report")
        # certify: verdicts agree with how each pair was built
        circle = r * np.exp(2j * np.pi * np.arange(self.certify_points) / self.certify_points)
        b1 = np.abs(checks.descriptor_values(s.b_equal[0], circle))
        gap_equal = np.abs(b1 - np.abs(checks.descriptor_values(s.b_equal[1], circle)))
        gap_unequal = np.abs(b1 - np.abs(checks.descriptor_values(s.b_unequal, circle)))
        if reports[3]["certificate"]["verdict"] != "equal_on_circle" or gap_equal.max() > 1e-12:
            problems.append("certify: the equal pair was not certified equal")
        if reports[4]["certificate"]["verdict"] != "inconclusive" or gap_unequal.max() <= 1e-6:
            problems.append("certify: the unequal pair was not reported inconclusive")
        if reports[4]["certificate"]["agreeing_count"] != int(np.count_nonzero(gap_unequal <= 1e-9)):
            problems.append("certify: agreeing_count differs from the recomputed count")
        # verify: max_deviation recomputed on the same points
        problems += [f"verify file: {p}" for p in checks.check_verify_report(reports[5], s.f, s.g_unequal, s.points)]
        problems += [f"verify circle: {p}" for p in checks.check_verify_report(reports[6], s.f, s.g_equal, r * nodes)]
        # classify: configuration from centre distance and radii
        c1, c2 = s.circles
        kind = checks.circle_configuration(c1, c2)
        if reports[7]["configuration"] != kind:
            problems.append(f"classify: {reports[7]['configuration']} != {kind}")
        elif kind == "intersecting" and abs(reports[7]["angle"] - checks.intersection_angle(c1, c2)) > 1e-9:
            problems.append("classify: intersection angle differs from the law of cosines")
        # example: the files it lists are JSON descriptors
        for path in reports[8]["files"]:
            with open(s.dir / path, encoding="utf-8") as fh:
                json.load(fh)
        return problems


WORKLOADS = {
    "retrieve_wide": retrieve_wide,
    "retrieve_deep": retrieve_deep,
    "cli_batch": CliWorkload,
}
