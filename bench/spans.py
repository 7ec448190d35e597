"""Span recording for the traced run, and the per-layer metrics derived from it.

The tracer wraps the public functions and methods of each ``discphase``
layer at module or class attribute level, from outside the package: a
function is replaced in every ``discphase`` module that binds it, a method
on its class.  Nothing under ``src/`` changes, and ``uninstall`` puts every
original back.  Each call records a span (name, start, end, parent span,
operation id) in memory; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter as _clock

import numpy as np

#: layer -> (module, attributes wrapped); "Class.method" wraps a method.
#: ``_search_degree`` is the body of the ``degree_search`` stage.
LAYERS = {
    "outer": ("discphase.outer", (
        "BoundaryModulus.__init__", "BoundaryModulus.to_csv", "BoundaryModulus.from_csv",
        "OuterFunction.__init__", "OuterFunction.__call__", "boundary_modulus_of",
    )),
    "retrieval": ("discphase.retrieval", (
        "ModulusData.__init__", "sample_modulus", "fit_modulus_rational", "_search_degree",
        "retrieve_two_circles", "RetrievalResult.__call__", "RetrievalResult.to_json",
        "certify_finite_points", "parametrize_pair", "verify_equal_modulus",
    )),
    "rational": ("discphase.rational", (
        "Polynomial.__call__", "RationalFunction.__call__", "RationalFunction.from_zeros_poles",
        "poly_roots", "build_modulus_product", "modulus_equation", "equality_points_on_circle",
    )),
    "blaschke": ("discphase.blaschke", (
        "BlaschkeProduct.__call__", "ExplicitPoints.__post_init__", "ModulusSamples.to_csv",
        "ModulusSamples.from_csv", "modulus_samples", "align_constant", "equal_up_to_unimodular",
    )),
    "geometry": ("discphase.geometry", (
        "Circle.sample_points", "MoebiusMap.__call__", "map_circle", "classify_pair",
        "classify_angle", "circle_as_automorphism_image", "inverse_point",
    )),
    "counterexamples": ("discphase.counterexamples", (
        "MoebiusOf.__call__", "PowerComposite.__call__", "StripMap.__call__", "ProductExpr.__call__",
        "function_expr_from_json", "function_expr_to_json", "rational_angle_pair",
        "perpendicular_lines_pair", "finite_set_pair", "two_circle_right_angle_pair",
        "inverse_points_demo",
    )),
    "cli": ("discphase.cli", (
        "main", "cmd_classify", "cmd_retrieve", "cmd_certify", "cmd_verify", "cmd_sample",
        "cmd_example",
    )),
}

#: modules whose calls to ``open`` are counted for cli.bytes_read / bytes_written
IO_MODULES = ("discphase.cli", "discphase.outer", "discphase.blaschke")

ROOT = "bench.op"


class Tracer:
    """Spans of the traced operations, kept as parallel lists in memory."""

    def __init__(self):
        self.name: list[str] = []
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.note: dict[int, object] = {}
        self.raised: set[int] = set()
        self.bytes_read = 0
        self.bytes_written = 0
        self._written: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list = []

    # ----------------------------------------------------------- recording

    def _begin(self, name: str, layer: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._begin(ROOT, "bench")

    def end_op(self) -> None:
        self._finish(self._stack[-1])
        for path in self._written:
            if os.path.exists(path):
                self.bytes_written += os.path.getsize(path)
        self._written.clear()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.add(idx)
                raise
            finally:
                tracer._finish(idx)
            if name in _NOTES:
                tracer.note[idx] = _NOTES[name](args, kwargs, result)
            return result

        return traced

    def _open(self, file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            self._written.append(os.path.abspath(file))
        else:
            self.bytes_read += os.path.getsize(file)
        return builtins.open(file, mode, *args, **kwargs)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [importlib.import_module("discphase")]
        modules += [importlib.import_module(m) for m, _ in LAYERS.values()]
        for layer, (modname, attrs) in LAYERS.items():
            module = importlib.import_module(modname)
            for attr in attrs:
                if "." in attr:
                    self._patch_method(getattr(module, attr.split(".")[0]), attr, layer)
                else:
                    self._patch_function(modules, getattr(module, attr), attr, layer)
        for modname in IO_MODULES:
            module = importlib.import_module(modname)
            module.open = self._open
            self._restore.append(lambda m=module: delattr(m, "open"))

    def _patch_method(self, cls, qualname: str, layer: str) -> None:
        meth = qualname.split(".")[1]
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, qualname, layer))
        else:
            wrapped = self._wrap(raw, qualname, layer)
        setattr(cls, meth, wrapped)
        self._restore.append(lambda: setattr(cls, meth, raw))

    def _patch_function(self, modules, fn, name: str, layer: str) -> None:
        wrapped = self._wrap(fn, name, layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._restore.append(lambda m=module, a=attr: setattr(m, a, fn))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -------------------------------------------------------------- output

    def dump(self, path) -> None:
        spans = [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i in range(len(self.name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
            fh.write("\n")


_NOTES = {
    # bytes of the complex n x m Schwarz-kernel matrix, computed from sizes
    "OuterFunction.__call__": lambda a, k, r: a[0].boundary.n * np.size(a[1]) * 16,
    "fit_modulus_rational": lambda a, k, r: bool(r.rank_deficient),
    "certify_finite_points": lambda a, k, r: np.size(a[2] if len(a) > 2 else k["points"]),
}


# ------------------------------------------------------------------ metrics


def _durations(t: Tracer):
    """Duration and self time (duration minus child spans) of every span."""
    dur = np.array(t.end) - np.array(t.start)
    parent = np.array(t.parent, dtype=int)
    child = np.zeros(len(dur))
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    return dur, dur - child


def layer_self_per_op(t: Tracer, skip_ops=()) -> list:
    """Per operation not in ``skip_ops``, the self time of all program layers
    (benchmark glue excluded)."""
    _, self_time = _durations(t)
    per_op: dict[int, float] = defaultdict(float)
    for i, (op, lay) in enumerate(zip(t.op, t.layer)):
        if lay != "bench" and op not in skip_ops:
            per_op[op] += self_time[i]
    return list(per_op.values())


def layer_metrics(t: Tracer, n_ops: int) -> dict:
    """Per-layer metrics of the traced operations, as name -> (value, unit).

    Times are per operation (total over the traced phase / operations) and
    inclusive of the calls a function makes, except the ``self.*`` times,
    which subtract child spans.  A function nested inside itself counts
    once, at its outermost call.
    """
    name = np.array(t.name, dtype=object)
    dur, self_time = _durations(t)
    parent_name = np.array([t.name[p] if p >= 0 else "" for p in t.parent], dtype=object)
    outermost = np.ones(len(dur), dtype=bool)
    for i, p in enumerate(t.parent):
        while p >= 0:
            if t.name[p] == t.name[i]:
                outermost[i] = False
                break
            p = t.parent[p]
    ops = max(n_ops, 1)

    def ms(names, under=None):
        mask = np.isin(name, names) & outermost
        if under is not None:
            mask &= parent_name == under
        return float(dur[mask].sum()) * 1000.0 / ops

    fits = np.nonzero(name == "fit_modulus_rational")[0]
    searches = np.nonzero(name == "_search_degree")[0]
    accepted = sum(1 for i in searches if i not in t.raised)
    # calls that raised carry no note
    kernels = [t.note.get(i, 0) for i in np.nonzero(name == "OuterFunction.__call__")[0]]
    certify = [t.note[i] for i in np.nonzero(name == "certify_finite_points")[0] if i in t.note]
    out = {
        "retrieve.ms": (ms(["retrieve_two_circles"]), "ms"),
        "outer.build_ms": (ms(["BoundaryModulus.__init__", "OuterFunction.__init__"], "retrieve_two_circles"), "ms"),
        "outer.eval_grid_ms": (ms(["OuterFunction.__call__"], "retrieve_two_circles"), "ms"),
        "outer.eval_scatter_ms": (ms(["OuterFunction.__call__"], "RetrievalResult.__call__"), "ms"),
        "outer.kernel_mb": (max(kernels, default=0) / 2**20, "MiB"),
        "degree_search.ms": (ms(["_search_degree"]), "ms"),
        "degree_search.fits_per_op": (len(fits) / ops, "count/op"),
        "degree_search.useful_ratio": (accepted / len(fits) if len(fits) else 0.0, "ratio"),
        "fit.svd_ms": (ms(["fit_modulus_rational"]), "ms"),
        "fit.rank_deficient_count": (sum(bool(t.note.get(i)) for i in fits) / ops, "count/op"),
        "roots.ms": (ms(["poly_roots"]), "ms"),
        "assemble.blaschke_eval_ms": (ms(["BlaschkeProduct.__call__"], "retrieve_two_circles"), "ms"),
        "certify.ms": (ms(["certify_finite_points"]), "ms"),
        "certify.points": (float(np.mean(certify)) if certify else 0.0, "count/call"),
        "explicit_points.ms": (ms(["ExplicitPoints.__post_init__"]), "ms"),
        "modulus_equation.ms": (ms(["modulus_equation"]), "ms"),
        "verify.ms": (ms(["verify_equal_modulus"]), "ms"),
        "cli.csv_read_ms": (ms(["BoundaryModulus.from_csv", "ModulusSamples.from_csv"]), "ms"),
        "cli.csv_write_ms": (ms(["BoundaryModulus.to_csv", "ModulusSamples.to_csv"]), "ms"),
        "cli.bytes_read": (t.bytes_read / ops, "B/op"),
        "cli.bytes_written": (t.bytes_written / ops, "B/op"),
    }
    for cmd in ("sample", "retrieve", "certify", "verify", "classify", "example"):
        out[f"cli.{cmd}_ms"] = (ms([f"cmd_{cmd}"]), "ms")
    layer = np.array(t.layer, dtype=object)
    for lay in ("bench", *LAYERS):
        out[f"self.{lay}_ms"] = (float(self_time[layer == lay].sum()) * 1000.0 / ops, "ms")
    return out
