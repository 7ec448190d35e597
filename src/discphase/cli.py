"""Command-line interface: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 success/certified, 1 certification failed or inconclusive,
2 invalid input, 3 numerical failure, 4 internal error (a bug: the
traceback goes to stderr).  Reports carry a matching "status" field;
identical inputs produce byte-identical output (floats are printed in
shortest round-trip form).  The commands raise; ``main`` alone maps an
exception to its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    ExplicitPoints,
    ModulusData,
    ModulusSamples,
    complex_points,
    modulus_samples,
    read_csv,
)
from .counterexamples import (
    StripMap,
    finite_set_pair,
    function_expr_from_json,
    function_expr_to_json,
    inverse_points_demo,
    perpendicular_lines_pair,
    rational_angle_pair,
    two_circle_right_angle_pair,
)
from .errors import DiscPhaseError, IdenticalCircles
from .geometry import (
    Circle,
    PairKind,
    RationalMultipleOfPi,
    UNIT_CIRCLE,
    classify_angle,
    classify_pair,
)
from .outer import BoundaryModulus, boundary_modulus_of
from .retrieval import (
    RetrievalConfig,
    certify_finite_points,
    retrieve_two_circles,
    verify_equal_modulus,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

_STATUS = {
    EXIT_OK: "ok",
    EXIT_INCONCLUSIVE: "inconclusive",
    EXIT_INVALID: "invalid-input",
    EXIT_NUMERICAL: "numerical-failure",
    EXIT_INTERNAL: "internal-error",
}

#: exceptions that mean the input was bad; any other DiscPhaseError is a
#: numerical failure (exit 3) and anything else a bug (exit 4)
_INPUT_ERRORS = (ValueError, OSError, IdenticalCircles)


def _emit(report: dict, code: int) -> int:
    report = {"status": _STATUS[code], **report}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return code


def _write_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _fail(code: int, message: str, **extra) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _emit({"error": message, **extra}, code)


def _parse_circle(text: str) -> Circle:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"circle must be 'cx,cy,r', got {text!r}")
    cx, cy, r = (float(p) for p in parts)
    return Circle(complex(cx, cy), r)


def _load_expr(path: str, only: str | None = None):
    """The function descriptor in the JSON file ``path``; ``only`` pins its type."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            expr = function_expr_from_json(obj)
        except (ValueError, RecursionError) as exc:  # bad JSON, or nested past the limit
            raise ValueError(f"{path}: {exc}") from exc
    if only is not None and obj["type"] != only:
        raise ValueError(f"{path}: descriptor type {obj['type']!r} is not {only!r}")
    return expr


def _angle_class_json(ac) -> dict:
    rational = isinstance(ac, RationalMultipleOfPi)
    return {"kind": "rational_multiple_of_pi" if rational else "presumed_irrational", **asdict(ac)}


def cmd_classify(args) -> int:
    c1 = _parse_circle(args.c1)
    c2 = _parse_circle(args.c2)
    for label, c in (("c1", c1), ("c2", c2)):
        if not c.inside_unit_disc:
            raise ValueError(f"{label} is not contained in the unit disc")
    config = classify_pair(c1, c2)
    report: dict = {"command": "classify", "configuration": config.kind.value}
    if config.kind is PairKind.INTERSECTING:
        ac = classify_angle(config.angle)
        report["angle"] = config.angle
        report["angle_class"] = _angle_class_json(ac)
        if isinstance(ac, RationalMultipleOfPi):
            report["verdict"] = "non-unique (counterexamples exist)"
        else:
            report["verdict"] = "unique (under irrationality detection policy)"
    else:
        report["verdict"] = "unique up to unimodular constant"
    return _emit(report, EXIT_OK)


def cmd_retrieve(args) -> int:
    boundary = BoundaryModulus.from_csv(args.boundary)
    inner = ModulusSamples.from_csv(args.inner)
    r = float(args.r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"--r must lie in (0, 1), got {r!r}")
    if len(inner) != boundary.n:
        raise ValueError(
            f"grid sizes differ: boundary has {boundary.n} samples, "
            f"inner circle has {len(inner)}"
        )
    data_r = ModulusData(Circle(0.0, r), inner.points, inner.moduli)
    config = RetrievalConfig(degree_max=args.degree_max, residual_tol=args.tol)
    result = retrieve_two_circles(boundary, data_r, config)
    outer_csv = None
    if args.out:
        out_path = Path(args.out)
        outer_csv = str(out_path.with_name(out_path.stem + "_outer.csv"))
        result.outer.boundary.to_csv(outer_csv)
    report = {"command": "retrieve", **result.to_json(outer_csv=outer_csv)}
    if args.out:
        _write_json(args.out, {"status": _STATUS[EXIT_OK], **report})
    return _emit(report, EXIT_OK)


def cmd_certify(args) -> int:
    b_f = _load_expr(args.f, only="blaschke")
    b_g = _load_expr(args.g, only="blaschke")
    r = float(args.r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"--r must lie in (0, 1), got {r!r}")
    k = int(args.points)
    bound = 2 * b_f.degree + 2 * b_g.degree - 1
    if k <= bound:
        return _fail(
            EXIT_INVALID,
            f"--points {k} cannot exceed the agreement bound: the criterion needs "
            f"more than 2M+2N-1 = {bound} distinct points",
            bound=bound,
        )
    cert = certify_finite_points(b_f, b_g, Circle(0.0, r).sample_points(k), tol=args.tol)
    report = {"command": "certify", "certificate": cert.to_json()}
    return _emit(report, EXIT_OK if cert.equal_on_circle else EXIT_INCONCLUSIVE)


def _segment_points(start: complex, end: complex, n: int) -> np.ndarray:
    """``n`` equally spaced points on the segment [start, end]."""
    if n < 1:
        raise ValueError("n_points must be at least 1")
    if not np.all(np.isfinite([start, end])):
        raise ValueError(f"segment endpoint is not finite: {start}, {end}")
    if n == 1:
        return np.array([start])
    return start + np.linspace(0.0, 1.0, n) * (end - start)


def _parse_point_set(spec: str, n: int) -> np.ndarray:
    kind, _, rest = spec.partition(":")
    if kind == "circle":
        circle = _parse_circle(rest)
        if n < 1:
            raise ValueError("n_points must be at least 1")
        return circle.sample_points(n)
    if kind == "segment":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValueError(f"segment must be 'x1,y1,x2,y2', got {rest!r}")
        x1, y1, x2, y2 = (float(p) for p in parts)
        return _segment_points(complex(x1, y1), complex(x2, y2), n)
    if kind == "file":
        try:
            re, im = read_csv(rest, "re,im")
        except ValueError as exc:
            raise ValueError(f"{rest}: {exc}") from exc
        return ExplicitPoints(complex_points(re, im)).points()
    raise ValueError(
        f"set spec must be 'circle:cx,cy,r', 'segment:x1,y1,x2,y2' or 'file:path', got {spec!r}"
    )


def cmd_verify(args) -> int:
    f = _load_expr(args.f)
    g = _load_expr(args.g)
    points = _parse_point_set(args.set, args.n)
    rep = verify_equal_modulus(f, g, points, tol=args.tol)
    report = {"command": "verify", "report": rep.to_json()}
    return _emit(report, EXIT_OK if rep.within_tol else EXIT_INCONCLUSIVE)


def cmd_sample(args) -> int:
    f = _load_expr(args.f)
    circle = _parse_circle(args.circle)
    n = int(args.n)
    if n < 1:
        raise ValueError("--n must be positive")
    if abs(circle.center) == 0.0 and circle.radius == 1.0 and args.phase_offset == 0.0:
        # unit-circle data uses the t,modulus format consumed by `retrieve`,
        # and a grid `retrieve` would reject is not written
        boundary_modulus_of(f, n).to_csv(args.out)
        fmt = "t,modulus"
    else:
        modulus_samples(f, circle.sample_points(n, args.phase_offset)).to_csv(args.out)
        fmt = "index,re,im,modulus"
    report = {
        "command": "sample",
        "n": n,
        "format": fmt,
        "circle": circle.to_json(),
        "out": args.out,
    }
    return _emit(report, EXIT_OK)


def _pair_verification(f, g, sets: dict, witness_points) -> dict:
    out: dict = {"advertised_sets": {}}
    worst = 0.0
    for name, points in sets.items():
        rep = verify_equal_modulus(f, g, points)
        out["advertised_sets"][name] = rep.to_json()
        worst = max(worst, rep.max_deviation)
    out["max_deviation_on_advertised_sets"] = worst
    rep = verify_equal_modulus(f, g, witness_points)
    out["witness"] = {
        "point": [rep.worst_point.real, rep.worst_point.imag],
        "deviation": rep.max_deviation,
    }
    return out


def _unimodularity(expr, pts) -> dict:
    dev = float(np.abs(np.abs(np.asarray(expr(pts), dtype=complex)) - 1.0).max())
    return {"max_unimodularity_deviation": dev, "n_points": len(pts)}


def _lines_example(k: int, f, g, n: int) -> tuple:
    ends = [0.9 * np.exp(1j * np.pi * m / k) for m in range(k)]
    sets = {f"line_{m}": _segment_points(-end, end, n) for m, end in enumerate(ends)}
    return (f, g), _pair_verification(f, g, sets, Circle(0.0, 0.5).sample_points(n))


def _finite_set_example(args, n: int) -> tuple:
    xs = tuple(args.r * np.exp(2j * np.pi * np.arange(args.n_x) / args.n_x))
    u, v = BlaschkeProduct(1.0, (0.2,)), BlaschkeProduct(1.0, (0.6,))
    f, g = finite_set_pair(xs, args.alpha, u, v)
    extra = _pair_verification(
        f, g, {"unit_circle": UNIT_CIRCLE.sample_points(n)}, Circle(0.0, 0.5).sample_points(n)
    )
    alpha = complex(args.alpha)
    pts = np.array(xs)
    extra["finite_set"] = {
        "points": [[x.real, x.imag] for x in xs],
        "max_value_deviation": float(np.abs(f(pts) - alpha).max())
        + float(np.abs(g(pts) - alpha).max()),
    }
    return (f, g), extra


def _right_angle_example(args, n: int) -> tuple:
    built = two_circle_right_angle_pair(args.c1, args.c2)
    sets = {"circle1": built.circle1.sample_points(n), "circle2": built.circle2.sample_points(n)}
    extra = _pair_verification(built.f, built.g, sets, Circle(0.0, 0.45).sample_points(n))
    extra["circles"] = [built.circle1.to_json(), built.circle2.to_json()]
    extra["base_angle"] = built.base_angle
    return (built.f, built.g), extra


def _strip_example(args, n: int) -> tuple:
    strip = StripMap()
    edge = np.linspace(-3.0, 3.0, n)
    rows = 0.1 + 0.8 * np.arange(24) / 24
    interior = np.array([complex(x, y) for y in rows for x in np.linspace(-2.0, 2.0, 21)])
    inside = np.abs(strip(interior))
    return (strip,), {
        "edge_im0": _unimodularity(strip, edge.astype(complex)),
        "edge_im1": _unimodularity(strip, 1j + edge),
        "interior_max_modulus": float(inside.max()),
        "maps_strip_into_disc": bool(inside.max() < 1.0),
    }


#: example name -> make(args, n): (expressions written as f.json, g.json; report fields)
_EXAMPLES = {
    "perpendicular_lines": lambda args, n: _lines_example(2, *perpendicular_lines_pair(), n),
    "rational_angle": lambda args, n: _lines_example(
        args.k, *rational_angle_pair(args.k, args.c1, args.c2), n
    ),
    "finite_set": _finite_set_example,
    "right_angle_circles": _right_angle_example,
    "strip": _strip_example,
    "inverse_points": lambda args, n: ((), {"report": inverse_points_demo(n_samples=n).to_json()}),
}


def cmd_example(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    exprs, extra = _EXAMPLES[args.name](args, 512)
    written = []
    for label, expr in zip(("f", "g"), exprs):
        path = out_dir / f"{label}.json"
        _write_json(path, function_expr_to_json(expr))
        written.append(str(path))
    report = {"command": "example", "name": args.name, "files": written, **extra}
    report_path = out_dir / "report.json"
    _write_json(report_path, {"status": _STATUS[EXIT_OK], **report})
    report["report_file"] = str(report_path)
    return _emit(report, EXIT_OK)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so ``main`` reports them; sub-parsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="discphase",
        description="Modulus-only reconstruction and uniqueness certificates on the unit disc",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a two-circle configuration")
    p.add_argument("--c1", required=True, help="first circle as cx,cy,r")
    p.add_argument("--c2", required=True, help="second circle as cx,cy,r")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("retrieve", help="reconstruct Blaschke x outer from two modulus files")
    p.add_argument("--boundary", required=True, help="CSV (t,modulus) on the unit circle")
    p.add_argument("--inner", required=True, help="CSV (index,re,im,modulus) on the inner circle")
    p.add_argument("--r", required=True, type=float, help="inner circle radius in (0,1)")
    p.add_argument("--degree-max", type=int, default=8, dest="degree_max")
    p.add_argument("--tol", type=float, default=1e-7, help="residual tolerance")
    p.add_argument("--out", default=None, help="write result JSON (plus outer CSV) here")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("certify", help="finite-point equal-modulus certificate")
    p.add_argument("--f", required=True, help="blaschke descriptor JSON")
    p.add_argument("--g", required=True, help="blaschke descriptor JSON")
    p.add_argument("--r", required=True, type=float)
    p.add_argument("--points", required=True, type=int, help="number of circle points")
    p.add_argument("--tol", type=float, default=1e-9, help="modulus agreement tolerance")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="max modulus gap of two descriptors on a set")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--set", required=True, help="circle:cx,cy,r | segment:x1,y1,x2,y2 | file:path")
    p.add_argument("--n", type=int, default=256, help="grid size for circle/segment sets")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="sample |f| on a circle grid to CSV")
    p.add_argument("--f", required=True)
    p.add_argument("--circle", required=True, help="cx,cy,r")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--phase-offset", type=float, default=0.0, dest="phase_offset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("example", help="write a generated function family plus report")
    p.add_argument("name", choices=list(_EXAMPLES))
    p.add_argument("--k", type=int, default=3, help="rational_angle: number of lines")
    p.add_argument("--c1", type=float, default=2.0)
    p.add_argument("--c2", type=float, default=3.0)
    p.add_argument("--r", type=float, default=0.5, help="finite_set: circle radius for X")
    p.add_argument("--n-x", type=int, default=2, dest="n_x", help="finite_set: size of X")
    p.add_argument("--alpha", type=complex, default=0.3, help="finite_set: common value")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _INPUT_ERRORS as exc:
        return _fail(EXIT_INVALID, str(exc))
    except DiscPhaseError as exc:
        stage = {"stage": exc.stage} if exc.stage else {}
        return _fail(EXIT_NUMERICAL, str(exc), **stage, kind=type(exc).__name__)
    except Exception as exc:
        traceback.print_exc()
        return _fail(EXIT_INTERNAL, str(exc), kind=type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
