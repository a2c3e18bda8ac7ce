"""Counts the benchmark reports must repeat exactly.

Run from the repository root:

    python3 -m pytest perfbench/test_determinism.py

For each workload at the default seed this runs one untraced pass and
two traced ones (a few minutes in all, most of it the two search
workloads).  Node and probe counts, every layer's call count, the DIMACS
edge-set counts and the detect-mix verdict vector must be identical
between the two traced runs, and the pass outputs must match the
untraced run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, warm_up  # noqa: E402

DEFAULT_SEED = 1


def traced_counts(L, workload) -> dict:
    tracer = Tracer()
    install(tracer, L)
    try:
        warm_up(L)
        result = workload.run_pass()
    finally:
        tracer.restore()
    counts = {
        name: value
        for name, (value, unit) in layer_metrics(tracer, 1.0).items()
        if unit == "count" or name.endswith(".bytes")
    }
    counts["pass"] = result.counts
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_match_untraced(name):
    L, workload, _ = run.set_up(name, DEFAULT_SEED)
    untraced = workload.run_pass()
    assert workload.check(untraced) == []
    first = traced_counts(L, workload)
    second = traced_counts(L, workload)
    assert first == second
    assert first["pass"] == untraced.counts
    assert first["search.nodes"] > 0 and first["detect.find_mono.calls"] > 0


def test_detect_mix_inputs_follow_the_seed():
    L = run.import_package()
    a = WORKLOADS["detect-mix"](L, 1)
    b = WORKLOADS["detect-mix"](L, 2)
    again = WORKLOADS["detect-mix"](L, 1)

    def slots(workload):
        return [item.coloring.slot_string() for item in workload.items]

    assert slots(a) == slots(again)
    assert slots(a) != slots(b)
    assert len(a.items) == len(b.items)
