"""Acceptance gate.

Each criterion below is a standalone test that prints one verdict line
(`ACCEPTANCE k: PASS/FAIL - summary`, visible under pytest -s and in
failure reports) and enforces its stated runtime budget.  Criterion 8
reruns the substance of criteria 1 through 7 twice and compares the
serialized reports byte for byte, so everything upstream must be fully
deterministic: fixed seeds, fixed option defaults, no timing fields.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from ldsramsey import (
    Color,
    ExactValue,
    LdsParams,
    TwoColoring,
    Witness,
    all_pairs,
    broom_ramsey,
    brute_force_oracle,
    certify,
    compute_ramsey,
    construct_clique_plus,
    construct_two_cliques,
    dimacs_satisfiable_by_sweep,
    exact_value,
    export_dimacs,
    find_good_coloring,
    find_mono_lds,
    lower_bound,
    lower_bound_branches,
    verify_witness,
)
from ldsramsey.formulas import PROV_THM31, PROV_THM32
from tests.conftest import random_complete_coloring

P5 = LdsParams(3, 1, 1)


@contextmanager
def criterion(num: int, summary: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {summary} ({time.perf_counter() - start:.2f}s)")


def grid_params():
    for p in (1, 2):
        for n in range(1, 5):
            for m in range(0, min(n, 2) + 1):
                yield LdsParams(2 * p + 1, n, m)


def run_grid() -> list[tuple[TwoColoring, dict]]:
    reports = []
    for params in grid_params():
        branch_a, branch_b = lower_bound_branches(params)
        for family, builder, expected in (
            ("two-cliques", construct_two_cliques, branch_a),
            ("clique-plus", construct_clique_plus, branch_b),
        ):
            coloring = builder(params)
            report = certify(coloring, params, construction=family)
            assert report.verdict == "certified", (family, params)
            assert coloring.r + 1 == expected, (family, params)
            reports.append((coloring, report.to_json_dict()))
    return reports


def run_thm32_low() -> tuple[TwoColoring, dict]:
    params = LdsParams(9, 2, 2)
    coloring = construct_clique_plus(params)
    assert coloring.r == 16
    report = certify(coloring, params, construction="clique-plus")
    assert report.verdict == "certified"
    assert lower_bound(params).value == params.n + 3 * ((params.c - 1) // 2) + 3 == 17
    return coloring, report.to_json_dict()


def run_thm31_low() -> tuple[TwoColoring, dict]:
    params = LdsParams(3, 3, 1)
    coloring = construct_two_cliques(params)
    assert coloring.r == 8
    report = certify(coloring, params, construction="two-cliques")
    assert report.verdict == "certified"
    assert lower_bound(params).value == 2 * (params.n + params.m) + params.c - 2 == 9
    return coloring, report.to_json_dict()


def reverify_refuted(reports: list[tuple[TwoColoring, dict]]) -> int:
    """Re-verify each refuted report's witness on its own coloring; the count checked."""
    checked = 0
    for coloring, report in reports:
        if report["verdict"] == "refuted":
            witness = Witness.from_json_dict(report["witness"])
            assert verify_witness(coloring, LdsParams(**report["params"]), witness), report
            checked += 1
    return checked


def run_search_cases() -> list[tuple[LdsParams, object]]:
    cases = []
    for shape, value in (((1, 1, 1), 3), ((3, 1, 1), 6), ((4, 2, 0), 7)):
        params = LdsParams(*shape)
        outcome = compute_ramsey(params)
        assert outcome.result == ExactValue(value), (params, outcome.result)
        cases.append((params, outcome))
    assert lower_bound(LdsParams(4, 2, 0)).value == broom_ramsey(2, 4) == 7
    return cases


def mask_coloring(r: int, mask: int) -> TwoColoring:
    coloring = TwoColoring(r)
    for t, (i, j) in enumerate(all_pairs(r)):
        coloring.set_edge(i, j, Color.RED if mask >> t & 1 else Color.BLUE)
    return coloring


def run_oracle_comparison() -> dict:
    disagreements = 0
    k5 = 0
    for shape in ((3, 1, 1), (3, 2, 0)):
        params = LdsParams(*shape)
        for mask in range(1 << 10):
            coloring = mask_coloring(5, mask)
            for color in (Color.RED, Color.BLUE):
                fast = find_mono_lds(coloring, params, color) is not None
                slow = brute_force_oracle(coloring, params, color) is not None
                disagreements += fast is not slow
                k5 += 1
    rng = random.Random(0x5EED)
    params = LdsParams(3, 2, 1)
    k8 = 0
    for _ in range(500):
        coloring = random_complete_coloring(8, rng)
        for color in (Color.RED, Color.BLUE):
            fast = find_mono_lds(coloring, params, color) is not None
            slow = brute_force_oracle(coloring, params, color) is not None
            disagreements += fast is not slow
            k8 += 1
    assert disagreements == 0
    return {"k5_comparisons": k5, "k8_comparisons": k8, "disagreements": disagreements}


def run_formula_lattice() -> dict:
    closed_form = 0
    ties = 0
    for p in range(1, 11):
        c = 2 * p + 1
        for n in range(1, 51):
            for m in range(0, n + 1):
                params = LdsParams(c, n, m)
                got = exact_value(params)
                if got is not None and got[1] in (PROV_THM31, PROV_THM32):
                    assert got[0] == lower_bound(params).value, params
                    closed_form += 1
                if n + m == p + 2:
                    branch_a, branch_b = lower_bound_branches(params)
                    assert branch_a == branch_b, params
                    ties += 1
    for n in range(2, 51):
        assert lower_bound(LdsParams(4, n, 0)).value == broom_ramsey(n, 4), n
    return {"closed_form_checked": closed_form, "tie_checked": ties, "s4_broom_checked": 49}


def run_sat_search_equivalence() -> dict:
    verdicts = {}
    for r in (5, 6):
        sat = dimacs_satisfiable_by_sweep(export_dimacs(P5, r))
        search = find_good_coloring(P5, r) is not None
        assert sat is search, r
        verdicts[f"r{r}"] = sat
    assert verdicts == {"r5": True, "r6": False}
    return verdicts


def test_criterion_1_construction_grid():
    with criterion(1, "construction grid certifies and meets the matching branch"):
        start = time.perf_counter()
        reports = run_grid()
        assert time.perf_counter() - start < 60.0
        assert len(reports) == 2 * 2 * (2 + 3 + 3 + 3)


def test_criterion_2_sixteen_vertex_lower_witness():
    with criterion(2, "16-vertex coloring certifies, putting r(S_9(2,2)) at least 17"):
        start = time.perf_counter()
        run_thm32_low()
        assert time.perf_counter() - start < 30.0


def test_criterion_3_eight_vertex_lower_witness():
    with criterion(3, "8-vertex coloring certifies, putting r(S_3(3,1)) at least 9"):
        start = time.perf_counter()
        run_thm31_low()
        assert time.perf_counter() - start < 5.0


def test_criterion_4_desk_scale_exact_values():
    with criterion(4, "exhaustive search pins 3, 6 and 7 at desk scale"):
        for shape, value, budget in (
            ((1, 1, 1), 3, 5.0),
            ((3, 1, 1), 6, 5.0),
            ((4, 2, 0), 7, 600.0),
        ):
            start = time.perf_counter()
            outcome = compute_ramsey(LdsParams(*shape))
            assert outcome.result == ExactValue(value)
            assert time.perf_counter() - start < budget
        assert lower_bound(LdsParams(4, 2, 0)).value == broom_ramsey(2, 4) == 7


def test_criterion_5_oracle_equivalence():
    with criterion(5, "detector and brute-force oracle never disagree"):
        digest = run_oracle_comparison()
        assert digest["k5_comparisons"] == 2 * 2 * 1024
        assert digest["k8_comparisons"] == 1000


def test_criterion_6_formula_lattice():
    with criterion(6, "closed forms, branch tie and broom identity hold on the lattice"):
        start = time.perf_counter()
        digest = run_formula_lattice()
        assert time.perf_counter() - start < 1.0
        assert digest["closed_form_checked"] > 1000
        assert digest["tie_checked"] > 0


def test_criterion_7_sat_search_equivalence():
    with criterion(7, "assignment sweep and search agree at 5 and 6 vertices"):
        start = time.perf_counter()
        run_sat_search_equivalence()
        assert time.perf_counter() - start < 10.0


def bundle() -> str:
    """One full deterministic run of the substance of criteria 1 to 7."""
    search_cases = run_search_cases()
    grid = run_grid()
    thm32_low = run_thm32_low()
    thm31_low = run_thm31_low()
    doc = {
        "grid": [report for _, report in grid],
        "thm32_low": thm32_low[1],
        "thm31_low": thm31_low[1],
        "search": [o.to_json_dict(include_timing=False) for _, o in search_cases],
        "oracle": run_oracle_comparison(),
        "lattice": run_formula_lattice(),
        "sat": run_sat_search_equivalence(),
    }
    # certificate re-verification: exact outcomes carry a good coloring that
    # must independently certify; any refuted report must carry a witness
    # that verifies on its coloring (none arise on these inputs;
    # test_refuted_report_witness_reverifies exercises the check)
    for params, outcome in search_cases:
        if outcome.good_coloring is not None:
            assert certify(outcome.good_coloring, params).verdict == "certified"
    assert reverify_refuted([*grid, thm32_low, thm31_low]) == 0
    return json.dumps(doc, sort_keys=True)


def test_criterion_8_determinism_and_certificates():
    with criterion(8, "reruns are byte-identical and certificates re-verify"):
        first = bundle()
        second = bundle()
        assert first == second


def test_refuted_report_witness_reverifies():
    params = LdsParams(3, 2, 1)
    all_red = mask_coloring(6, (1 << 15) - 1)
    report = certify(all_red, params).to_json_dict()
    assert report["verdict"] == "refuted"
    assert reverify_refuted([(all_red, report)]) == 1
    with pytest.raises(AssertionError):
        reverify_refuted([(mask_coloring(6, 0), report)])
