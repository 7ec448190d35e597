"""Benchmark of discphase: two-circle retrieval, certification and the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload retrieve_wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # each workload in a fresh process

Each workload is a closed loop from one client in one single-threaded
process.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a traced run with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("retrieve_wide", "retrieve_deep", "cli_batch")
MIN_OPS = 40  # successful operations per timed phase, for a tail with 10 samples beyond it
MIN_TRACED_OPS = 20
SETUP_REPEATS = 3
COLD_START_LAUNCHES = 5
PHASE_CAP_S = 100.0  # stop starting rounds after this long, whatever MIN_OPS says


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's alone."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines))
        status = status or proc.returncode
    return status


# ---------------------------------------------------------------- measuring


class Phase:
    """Tally of one closed loop: latencies, time in the program, failures."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, successful operations
        self.busy = 0.0  # seconds inside the program, all attempted operations
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: dict[str, int] = {}
        self.failed_ops: set[int] = set()


def run_round(workload, cases, ph: Phase, tracer=None) -> None:
    """One round: every case once, timed; checks run between operations."""
    for case in cases:
        op = ph.attempted
        if tracer:
            tracer.begin_op(op)
        t0 = time.perf_counter()
        try:
            output, error = workload.run(case), None
        except Exception as exc:  # the program failed this operation; count it
            output, error = None, exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        ph.attempted += 1
        ph.busy += dt
        problems = [f"{type(error).__name__}: {error}"] if error else workload.check(case, output)
        if problems:
            ph.failed += 1
            ph.incorrect += error is None
            ph.failed_ops.add(op)
            key = f"{case.label}: {problems[0][:200]}"
            if key not in ph.failures:
                print(f"failed {workload.name} {key}", file=sys.stderr)
            ph.failures[key] = ph.failures.get(key, 0) + 1
        else:
            ph.latencies.append(dt)


def run_phase(workload, cases, seconds: float, min_ops: int, tracer=None) -> tuple[Phase, Phase | None]:
    """Whole rounds until ``seconds`` have passed and ``min_ops`` succeeded.

    With a tracer, untraced and traced rounds alternate, so that drift in
    the machine's speed falls on both alike; returns (untraced, traced).
    """
    plain = Phase()
    traced = Phase() if tracer else None
    start = time.perf_counter()
    while True:
        run_round(workload, cases, plain)
        if tracer:
            tracer.install()
            try:
                run_round(workload, cases, traced, tracer)
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        done = min(len(p.latencies) for p in (plain, traced) if p) >= min_ops
        if (elapsed >= seconds and done) or elapsed >= PHASE_CAP_S:
            return plain, traced


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def setup(workload, seed: int, workdir: Path):
    """Make the inputs and run one warm-up operation, SETUP_REPEATS times.

    Returns the cases of the last repeat, the median input time, the median
    set-up time (inputs plus warm-up) and the warm-up's problems."""
    inputs, totals = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        cases = workload.prepare(seed, workdir)
        t1 = time.perf_counter()
        try:
            problems = workload.check(cases[0], workload.run(cases[0]))
        except Exception as exc:
            problems = [f"warm-up raised {type(exc).__name__}: {exc}"]
        totals.append(time.perf_counter() - t0)
        inputs.append(t1 - t0)
    return cases, statistics.median(inputs), statistics.median(totals), problems


def cold_start_ms() -> float:
    """Median wall time of `python -m discphase.cli classify` launches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "discphase.cli", "classify", "--c1=0.2,0,0.3", "--c2=-0.2,0,0.3"]
    times = []
    for _ in range(COLD_START_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
    }


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discphase" / "__init__.py").is_file():
        print(f"error: no discphase sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import discphase
    import discphase.cli  # noqa: F401  (the cli layer is part of the import cost)

    import_s = time.perf_counter() - t_import
    if Path(discphase.__file__).resolve().parent != SRC / "discphase":
        print(f"error: imported discphase from {discphase.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans as tracing
    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("results", "traces", "logs"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    # the library's warnings go to a log file instead of the last-resort stderr handler
    log_handler = logging.FileHandler(OUT / "logs" / f"{tag}.log", mode="w", encoding="utf-8")
    logging.getLogger("discphase").addHandler(log_handler)
    workdir = OUT / "tmp" / f"{tag}-{os.getpid()}"

    workload = WORKLOADS[args.workload]()
    try:
        cases, inputs_s, setup_rest_s, warm_problems = setup(workload, args.seed, workdir)
        setup_s = import_s + setup_rest_s
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = run_phase(workload, cases, args.seconds, MIN_TRACED_OPS if tracer else MIN_OPS, tracer)
        phases = [p for p in (plain, traced) if p]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        logging.getLogger("discphase").removeHandler(log_handler)
        log_handler.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not warm_problems and all(p.incorrect == 0 for p in phases)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **environment()}
    if args.trace:
        metrics = {k: metric(v, u) for k, (v, u) in tracing.layer_metrics(tracer, traced.attempted).items()}
        plain_ms = statistics.median(plain.latencies) * 1000.0
        traced_ms = statistics.median(traced.latencies) * 1000.0
        layers_ms = statistics.median(tracing.layer_self_per_op(tracer, traced.failed_ops)) * 1000.0
        metrics.update({
            "cli.cold_start_ms": metric(cold_start_ms(), "ms"),
            "setup.import_s": metric(import_s, "s"),
            "setup.inputs_s": metric(inputs_s, "s"),
            "trace.overhead_pct": metric(100.0 * (traced_ms / plain_ms - 1.0), "%"),
            "trace.accounted_pct": metric(100.0 * layers_ms / plain_ms, "%"),
        })
        tracer.dump(OUT / "traces" / f"{tag}.json")
        info.update(untraced_latency_ms=plain_ms, traced_latency_ms=traced_ms,
                    layer_self_ms_median=layers_ms, traced_ops=traced.attempted, spans=len(tracer.name))
    else:
        lat_ms = [x * 1000.0 for x in plain.latencies]
        tail_ms, tail_pct = tail(lat_ms)
        metrics = {
            "latency_ms": metric(statistics.median(lat_ms), "ms"),
            "latency_tail_ms": metric(tail_ms, "ms"),
            "throughput_ops_s": metric(len(lat_ms) / plain.busy, "ops/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "setup_s": metric(setup_s, "s"),
        }
        info.update(samples=len(lat_ms), tail_percentile=round(tail_pct, 1), busy_s=plain.busy,
                    setup_import_s=import_s, setup_inputs_s=inputs_s)
    failures = {k: sum(p.failures.get(k, 0) for p in phases) for k in plain.failures}
    info.update(attempted=attempted, failed=failed, failures=failures, warm_up_problems=warm_problems)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({"info": info, **result}, indent=2) + "\n")
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
