#!/usr/bin/env python3
"""Benchmark for ldsramsey: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the package is imported from the
checkout's ``src`` directory and nowhere else.  With ``--trace 0`` the
workload's timed passes repeat until ``--seconds`` is used up and the
end-to-end metrics are printed.  With ``--trace 1`` one untraced pass is
followed by one traced warm-up and pass, the per-layer metrics are
printed, and the spans are written to ``perfbench/out/``.  ``--all``
runs every workload in its own process and prints one table.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# set-up is repeated and its median reported, so one slow import does not count
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, warm_up  # noqa: E402


def import_package():
    """Import ldsramsey afresh from the checkout, dropping any earlier copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ldsramsey" or n.startswith("ldsramsey.")]:
        del sys.modules[name]
    L = importlib.import_module("ldsramsey")
    if Path(L.__file__).resolve().parent != SRC / "ldsramsey":
        raise ImportError(f"ldsramsey came from {L.__file__}, not from {SRC}")
    return L


def set_up(name: str, seed: int):
    """Import, generate the inputs and warm up; returns (L, workload, CPU seconds)."""
    start = time.process_time()
    L = import_package()
    workload = WORKLOADS[name](L, seed)
    warm_up(L)
    return L, workload, time.process_time() - start


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "ldsramsey").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


class PassTimes:
    """What a timed pass leaves behind once its outputs are checked."""

    def __init__(self, result):
        self.wall_s = result.wall_s
        # per verdict, in stream order; compact so that the run's peak
        # memory does not grow with the number of passes
        self.cpu = array("d", (out.cpu_s for out in result.outputs))
        self.wall = array("d", (out.seconds for out in result.outputs))


def run_timed(workload, seconds: float):
    """Timed passes until the budget is spent; returns (times, attempted, failures)."""
    times, failures = [], []
    attempted = 0
    spent = 0.0
    while True:
        result = workload.run_pass()
        failures += workload.check(result)
        attempted += len(result.outputs)
        times.append(PassTimes(result))
        del result
        spent += times[-1].wall_s
        if spent + statistics.median(t.wall_s for t in times) > seconds:
            return times, attempted, failures


def per_verdict_medians(times: list[PassTimes], attr: str) -> list[float]:
    """Each verdict's time, as its median over the passes, sorted.

    The median drops a pass that ran slow because the host was busy.
    """
    columns = [getattr(t, attr) for t in times]
    return sorted(statistics.median(col[k] for col in columns) for k in range(len(columns[0])))


def end_to_end(times, setups: list[float], failed: int, attempted: int) -> tuple[dict, list]:
    """The gated metrics, in process CPU time, and the printed rows.

    The workloads are single-threaded and do no I/O, so CPU time is what
    the wall time would be on an idle core; on a shared host wall time
    also counts time the core spent on other processes.  Wall-clock
    figures are printed beside them but not gated.
    """
    cpu = per_verdict_medians(times, "cpu")
    wall = per_verdict_medians(times, "wall")
    metrics = {
        "cpu_s": (sum(cpu), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verdict_cpu_p50_ms": (nearest_rank(cpu, 0.50) * 1e3, "ms"),
        "verdict_cpu_p99_ms": (nearest_rank(cpu, 0.99) * 1e3, "ms"),
    }
    verdicts = f"n={len(cpu)} verdicts x {len(times)} pass(es)"
    notes = {
        "cpu_s": f"sum of per-verdict medians over {len(times)} pass(es)",
        "setup_s": f"median of {len(setups)} set-ups",
        "verdict_cpu_p50_ms": verdicts,
        "verdict_cpu_p99_ms": verdicts,
    }
    rows = [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
    rows += [
        ("wall_s", statistics.median(t.wall_s for t in times), "s", "median pass, not gated"),
        ("latency_p50_ms", nearest_rank(wall, 0.50) * 1e3, "ms", "wall clock, not gated"),
        ("latency_p99_ms", nearest_rank(wall, 0.99) * 1e3, "ms", "wall clock, not gated"),
        ("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted} outputs"),
    ]
    return metrics, rows


def run_traced(L, workload, name: str, seed: int, env: dict):
    """One untraced pass, then a traced warm-up and pass."""
    reference = workload.run_pass()
    failures = workload.check(reference)
    tracer = Tracer()
    install(tracer, L)
    start = time.perf_counter()
    try:
        warm_up(L)
        traced = workload.run_pass()
    finally:
        tracer.restore()
    traced_wall = time.perf_counter() - start
    # the traced pass must reproduce the untraced one's counts and verdicts
    failures += workload.check(traced)
    metrics = layer_metrics(tracer, traced_wall)
    # in CPU time: the tracer's cost is CPU, and wall time swings with the host
    metrics["trace.overhead"] = (traced.cpu_s / reference.cpu_s - 1.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(
        OUT_DIR / f"trace-{name}-seed{seed}.json",
        {"workload": name, "seed": seed, "env": env, "traced_wall_s": traced_wall},
    )
    split = sorted(
        ((s.self_time / traced_wall, layer) for layer, s in tracer.layers.items() if s.calls),
        reverse=True,
    )
    rows = [(k, v, u, "") for k, (v, u) in metrics.items()]
    rows += [(f"self share: {layer}", v, "ratio", "") for v, layer in split]
    attempted = len(reference.outputs) + len(traced.outputs)
    return attempted, failures, metrics, rows


def print_rows(rows) -> None:
    for key, value, unit, note in rows:
        print(f"  {key:40s} {value:>16.6g} {unit:6s} {note}")


def run_one(args) -> int:
    if not (SRC / "ldsramsey" / "__init__.py").is_file():
        print(f"no ldsramsey sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    setups = []
    for _ in range(SETUP_REPEATS):
        L, workload, seconds = set_up(args.workload, args.seed)
        setups.append(seconds)
    env = environment()
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        attempted, failures, metrics, rows = run_traced(L, workload, args.workload, args.seed, env)
        failed = min(len(failures), attempted)
    else:
        times, attempted, failures = run_timed(workload, args.seconds)
        failed = min(len(failures), attempted)
        metrics, rows = end_to_end(times, setups, failed, attempted)
    print_rows(rows)
    for problem in failures[:20]:
        print(f"  FAIL {problem}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
        if lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
