"""Property test of ``discphase.cli.main`` on hostile inputs.

Malformed, non-finite, empty and mis-sized CSV and JSON files and flag
values must all end in a documented outcome: exit code 0-3, a ``"status"``
that names the code, and a stdout report that is strict JSON (no NaN or
Infinity constants).  Exit 4 (internal error) is a bug in the program.
"""

import contextlib
import io
import json
import math
import os
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discphase.cli import main

STATUS = {0: "ok", 1: "inconclusive", 2: "invalid-input", 3: "numerical-failure"}

HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.5, 1.0, 2.0, 1e300, 1e-300]),
    st.floats(),
)
TOKENS = st.one_of(HOSTILE.map(repr), st.sampled_from(["", "x", " ", "0x10", "1,2"]))
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), HOSTILE, st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner),
    max_leaves=6,
)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"stdout holds the non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _num(draw, rnd, lo=-0.9, hi=0.9):
    """A float in [lo, hi], or one time in eight a hostile one."""
    return draw(HOSTILE if rnd.random() < 1 / 8 else st.floats(lo, hi))


def _pair(draw, rnd, lo=-0.6, hi=0.6):
    return [_num(draw, rnd, lo, hi), _num(draw, rnd, lo, hi)]


def _blaschke(draw, rnd):
    theta = draw(st.floats(0.0, 6.3))
    zeros = [_pair(draw, rnd) for _ in range(rnd.randint(0, 3))]
    return {"type": "blaschke", "constant": [math.cos(theta), math.sin(theta)], "zeros": zeros}


def _poly(draw, rnd, size):
    return {"type": "poly", "coeffs": [[1.0, 0.0]] + [_pair(draw, rnd) for _ in range(size)]}


def _rational(draw, rnd):
    num, den = _poly(draw, rnd, rnd.randint(0, 2)), _poly(draw, rnd, rnd.randint(0, 2))
    return {"type": "rational", "num": num, "den": den}


def _descriptor(draw, rnd, blaschke_only=False):
    """A function descriptor, one time in four with a field deleted or replaced by junk."""
    kind = "blaschke" if blaschke_only else rnd.choice(
        ["blaschke", "poly", "rational", "product", "power", "moebius", "strip"]
    )
    if kind == "blaschke":
        obj = _blaschke(draw, rnd)
    elif kind == "poly":
        obj = _poly(draw, rnd, rnd.randint(0, 3))
    elif kind == "rational":
        obj = _rational(draw, rnd)
    elif kind == "product":
        obj = {"type": "product", "factors": [_blaschke(draw, rnd), _rational(draw, rnd)]}
    elif kind == "power":
        k = draw(HOSTILE) if rnd.random() < 1 / 8 else rnd.randint(1, 4)
        obj = {"type": "power_composite", "k": k, "inner": _rational(draw, rnd)}
    elif kind == "moebius":
        mapping = {key: _pair(draw, rnd, -2.0, 2.0) for key in "abcd"}
        obj = {"type": "moebius_of", "map": mapping, "inner": _blaschke(draw, rnd)}
    else:
        obj = {"type": "strip"}
    if rnd.random() < 1 / 4:
        key = rnd.choice(sorted(obj))
        if rnd.random() < 0.5:
            del obj[key]
        else:
            obj[key] = draw(JUNK)
    return obj


def _json_file(draw, rnd, obj):
    """The file holding ``obj``, or one time in six junk, text or bytes."""
    if rnd.random() < 1 / 6:
        return draw(st.one_of(st.text(max_size=16), st.binary(max_size=16), JUNK.map(json.dumps)))
    return json.dumps(obj)


def _csv(draw, rnd, header, n, radius=1.0, zeros=(), c=0.0):
    """``n`` rows of |B (1 + c z)| on a circle (B has the given zeros), now and
    then with broken rows or header."""
    t = 2.0 * np.pi * np.arange(n) / n
    z = radius * np.exp(1j * t)
    modulus = np.abs(1.0 + c * z)
    with np.errstate(all="ignore"):  # a hostile zero gives hostile moduli
        for a in zeros:
            modulus = modulus * np.abs((z - a) / (1.0 - np.conj(a) * z))
    columns = {"t": t, "index": np.arange(n), "re": z.real, "im": z.imag, "modulus": modulus}
    rows = [[repr(float(columns[name][k])) for name in header.split(",")] for k in range(n)]
    while rows and rnd.random() < 1 / 5:
        row = rnd.choice(rows)
        edit = rnd.choice(["value", "drop", "extra"])
        if edit == "value":
            row[rnd.randrange(len(row))] = draw(TOKENS)
        elif edit == "drop":
            row.pop()
        else:
            row.append(draw(TOKENS))
    if rnd.random() < 1 / 10:
        header = rnd.choice(["", "t,modulus", "re,im", "a,b"])
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _circle(draw, rnd):
    values = [_num(draw, rnd, -0.4, 0.4), _num(draw, rnd, -0.4, 0.4), _num(draw, rnd, 0.05, 0.5)]
    return ",".join(map(repr, values[: 2 if rnd.random() < 1 / 10 else 3]))


def _size(rnd, lo, hi):
    """An integer flag value in [1, hi], or one time in eight in [lo, 0]."""
    return rnd.randint(lo, 0) if rnd.random() < 1 / 8 else rnd.randint(1, hi)


@st.composite
def commands(draw, command):
    """An argv for ``command``, with the files it names (name -> text or bytes).

    The shape of the input and the odds of a hostile value come from a seeded
    ``Random`` (hypothesis's own choices lean hard towards the first option),
    so most inputs are valid and reach the numerics; the values themselves
    are hypothesis floats.
    """
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    files: dict = {}

    def flag(name, value):
        return f"--{name}={value}"

    def descriptors(blaschke_only=False):
        f = _descriptor(draw, rnd, blaschke_only)
        # an equal pair certifies, so the success path is fuzzed too
        g = f if rnd.random() < 0.5 else _descriptor(draw, rnd, blaschke_only)
        files["f.json"], files["g.json"] = _json_file(draw, rnd, f), _json_file(draw, rnd, g)
        return [flag("f", "f.json"), flag("g", "g.json")]

    tol = [flag("tol", repr(_num(draw, rnd, 1e-12, 1e-6)))] if rnd.random() < 0.3 else []
    if command == "sample":
        files["f.json"] = _json_file(draw, rnd, _descriptor(draw, rnd))
        circle = rnd.choice(["0,0,1", "0,0,0.5", _circle(draw, rnd)])
        offset = 0.0 if rnd.random() < 0.5 else _num(draw, rnd, 0.0, 1.0)
        argv = [
            flag("f", "f.json"),
            flag("circle", circle),
            flag("n", _size(rnd, -2, 64)),
            flag("phase-offset", repr(offset)),
            flag("out", "missing/out.csv" if rnd.random() < 1 / 8 else "out.csv"),
        ]
    elif command == "retrieve":
        # the outer factor needs at least 16 boundary samples
        n = _size(rnd, 0, 64) if rnd.random() < 1 / 4 else rnd.randint(16, 64)
        r = _num(draw, rnd, 0.3, 0.8)
        zeros = [complex(*_pair(draw, rnd)) for _ in range(rnd.randint(0, 3))]
        c = draw(st.floats(-0.9, 0.9))
        files["boundary.csv"] = _csv(draw, rnd, "t,modulus", n, 1.0, zeros, c)
        inner_n = n - 1 if rnd.random() < 1 / 8 else n
        radius = r if 0 < r < 1 else 0.5
        files["inner.csv"] = _csv(draw, rnd, "index,re,im,modulus", inner_n, radius, zeros, c)
        argv = [
            flag("boundary", "boundary.csv"),
            flag("inner", "inner.csv"),
            flag("r", repr(r)),
            flag("degree-max", rnd.randint(0, 6)),
            *tol,
            *([flag("out", "result.json")] if rnd.random() < 0.5 else []),
        ]
    elif command == "certify":
        argv = [
            *descriptors(blaschke_only=True),
            flag("r", repr(_num(draw, rnd, 0.1, 0.9))),
            flag("points", _size(rnd, -1, 64)),
            *tol,
        ]
    elif command == "verify":
        kind = rnd.choice(["circle", "segment", "file", "other"])
        if kind == "circle":
            spec = "circle:" + _circle(draw, rnd)
        elif kind == "segment":
            spec = "segment:" + ",".join(repr(_num(draw, rnd)) for _ in range(4))
        elif kind == "file":
            files["points.csv"] = _csv(draw, rnd, "re,im", _size(rnd, 0, 64), 0.5)
            spec = "file:points.csv"
        else:
            spec = draw(st.text(max_size=8))
        argv = [*descriptors(), flag("set", spec), flag("n", _size(rnd, -1, 64)), *tol]
    elif command == "classify":
        argv = [flag("c1", _circle(draw, rnd)), flag("c2", _circle(draw, rnd))]
    else:
        argv = [
            rnd.choice(["rational_angle", "finite_set", "right_angle_circles"]),
            flag("k", _size(rnd, -1, 8)),
            flag("c1", repr(_num(draw, rnd, 0.1, 3.0))),
            flag("c2", repr(_num(draw, rnd, 0.1, 3.0))),
            flag("r", repr(_num(draw, rnd, 0.1, 0.9))),
            flag("n-x", _size(rnd, 0, 8)),
            flag("alpha", repr(_num(draw, rnd))),
            flag("out-dir", "example"),
        ]
    return [command, *argv], files


@pytest.mark.parametrize(
    "command", ["sample", "retrieve", "certify", "verify", "classify", "example"]
)
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_input_ends_in_a_documented_outcome(command, data):
    argv, files = data.draw(commands(command))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            path = Path(tmp) / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in STATUS, (argv, files, err.getvalue())
    report = _strict_json(out.getvalue())
    assert report["status"] == STATUS[code]
