from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldsramsey import (
    Color,
    EmbeddingLimitExceeded,
    ExactValue,
    Indeterminate,
    InstanceTooLargeError,
    LdsParams,
    NodeLimitReached,
    SearchOptions,
    SearchStats,
    ValueInterval,
    bound_report,
    brute_force_oracle,
    compute_ramsey,
    construct_two_cliques,
    default_scan_floor,
    dimacs_satisfiable_by_sweep,
    exact_value,
    export_dimacs,
    find_good_coloring,
    find_mono_lds,
    parse_dimacs,
    serialize_coloring,
)
from ldsramsey.search import _Engine

P5 = LdsParams(3, 1, 1)


def rescan_lex_ok(slots: bytearray, lex_maps: list[list[int]], t: int) -> bool:
    """Reference lex-leader check: every comparison rescanned from slot 0."""
    for tau in lex_maps:
        for j in range(t + 1):
            jj = tau[j]
            if jj > t:
                break
            a = slots[j]
            b = slots[jj]
            if a != b:
                if a > b:
                    return False
                break
    return True


def formula_targets():
    """Every target on at most 8 vertices with a closed-form value."""
    slow = {(2, 5, 1), (3, 5, 0)}  # several seconds of search each
    for c in range(1, 9):
        for n in range(9 - c):
            for m in range(min(n, 8 - c - n) + 1):
                params = LdsParams(c, n, m)
                exact = exact_value(params)
                if exact is not None:
                    marks = [pytest.mark.slow] if (c, n, m) in slow else []
                    yield pytest.param(params, exact[0], marks=marks, id=params.label())


class TestFindGoodColoring:
    def test_k5_admits_a_good_coloring(self):
        col = find_good_coloring(P5, 5)
        assert col is not None and col.r == 5
        for color in (Color.RED, Color.BLUE):
            assert brute_force_oracle(col, P5, color) is None

    def test_k6_is_exhausted(self):
        assert find_good_coloring(P5, 6) is None

    def test_middle_ground_params(self):
        # S_3(2,1): good at six vertices, none from seven on
        params = LdsParams(3, 2, 1)
        col = find_good_coloring(params, 6)
        assert col is not None
        assert find_mono_lds(col, params) is None
        assert find_good_coloring(params, 7) is None

    def test_none_is_monotone_upward(self):
        assert find_good_coloring(P5, 7) is None
        assert find_good_coloring(LdsParams(3, 2, 1), 8) is None

    def test_tiny_hosts(self):
        # any coloring of a too-small host is good
        assert find_good_coloring(LdsParams(3, 2, 2), 3) is not None
        # a one-vertex target is unavoidable
        assert find_good_coloring(LdsParams(1, 0, 0), 1) is None

    def test_symmetry_breaking_changes_nothing(self):
        plain = SearchOptions(use_lex_leader=False, use_color_pin=False)
        lex_only = SearchOptions(use_color_pin=False)
        pin_only = SearchOptions(use_lex_leader=False)
        for shape in ((3, 1, 1), (3, 2, 0), (2, 1, 1), (1, 2, 1), (3, 2, 1)):
            params = LdsParams(*shape)
            for r in range(2, 7):
                want = find_good_coloring(params, r) is not None
                for opts in (plain, lex_only, pin_only):
                    assert (find_good_coloring(params, r, opts) is not None) == want

    def test_node_limit_raises_instead_of_lying(self):
        stats = SearchStats()
        with pytest.raises(NodeLimitReached):
            find_good_coloring(P5, 6, SearchOptions(node_limit=10), stats)
        assert stats.limit_hit
        assert stats.nodes == 11

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            find_good_coloring(P5, 0)

    @settings(max_examples=80, deadline=None)
    @given(r=st.integers(3, 8), pin=st.booleans(), data=st.data())
    def test_incremental_lex_matches_rescan(self, r, pin, data):
        # walk one random root-to-leaf DFS path, trying every choice at each
        # depth before descending into a lex-viable one, as the DFS would
        engine = _Engine(P5, r, SearchOptions(use_color_pin=pin))
        for t in range(len(engine.pairs)):
            viable = []
            for val in engine._choices(t):
                engine.slots[t] = val
                verdict = engine._lex_ok(t)
                assert verdict == rescan_lex_ok(engine.slots, engine.lex_maps, t)
                if verdict:
                    viable.append(val)
            if not viable:
                return
            engine.slots[t] = data.draw(st.sampled_from(viable))
            assert engine._lex_ok(t)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchOptions(node_limit=0)

    def test_scan_floor_seeding(self):
        assert default_scan_floor(LdsParams(3, 2, 1)) == 7
        assert default_scan_floor(LdsParams(9, 2, 2)) == 17
        assert default_scan_floor(LdsParams(4, 2, 0)) == 2
        assert default_scan_floor(LdsParams(1, 5, 5)) == 2


class TestComputeRamsey:
    @pytest.mark.parametrize(
        "shape, value",
        [
            ((1, 1, 1), 3),
            ((2, 1, 1), 5),
            ((3, 1, 1), 6),
            ((3, 2, 0), 6),
            ((4, 2, 0), 7),
        ],
    )
    def test_desk_scale_exact_values(self, shape, value):
        outcome = compute_ramsey(LdsParams(*shape))
        assert outcome.result == ExactValue(value)
        assert not outcome.limit_hit
        assert outcome.nodes_explored > 0
        good = outcome.good_coloring
        assert good is not None and good.r == value - 1
        assert find_mono_lds(good, LdsParams(*shape)) is None

    def test_default_seed_lands_above_and_descends(self):
        # the seeded floor is 7 and the value is 7, so the first probe
        # exhausts and the certificate comes from the downward walk
        outcome = compute_ramsey(LdsParams(3, 2, 1))
        assert outcome.result == ExactValue(7)
        assert outcome.good_coloring is not None and outcome.good_coloring.r == 6

    def test_descent_from_far_above(self):
        outcome = compute_ramsey(P5, 8, 9)
        assert outcome.result == ExactValue(6)

    def test_single_point_window(self):
        outcome = compute_ramsey(P5, 6, 6)
        assert outcome.result == ExactValue(6)

    def test_window_below_the_value_gives_an_open_interval(self):
        outcome = compute_ramsey(P5, 2, 4)
        assert outcome.result == ValueInterval(5, 5, hi_certified=False)
        assert outcome.good_coloring is not None and outcome.good_coloring.r == 4

    def test_one_vertex_target(self):
        outcome = compute_ramsey(LdsParams(1, 0, 0), 2, 3)
        assert outcome.result == ExactValue(1)
        assert outcome.good_coloring is None

    def test_budget_exhaustion_mid_scan_keeps_the_floor(self):
        probe = SearchStats()
        assert find_good_coloring(P5, 5, stats=probe) is not None
        opts = SearchOptions(node_limit=probe.nodes + 3)
        outcome = compute_ramsey(P5, 5, 6, opts)
        assert outcome.limit_hit
        assert outcome.result == ValueInterval(6, 7, hi_certified=False)

    def test_budget_too_small_for_anything(self):
        outcome = compute_ramsey(P5, 6, 6, SearchOptions(node_limit=5))
        assert isinstance(outcome.result, Indeterminate)
        assert outcome.limit_hit

    @pytest.mark.parametrize(
        "shape, nodes, lex_prunes, copy_prunes",
        [
            ((3, 1, 1), 160, 37, 41),
            ((3, 2, 0), 97, 21, 26),
            ((2, 1, 1), 54, 9, 15),
            ((1, 2, 1), 52, 9, 11),
            ((3, 2, 1), 318, 83, 73),
            ((2, 3, 1), 406, 85, 106),
            ((4, 1, 1), 1293, 342, 285),
            ((3, 2, 2), 1959, 568, 404),
            ((4, 2, 2), 15472, 4615, 3069),
            ((2, 2, 2), 846, 228, 177),
            ((5, 1, 1), 4709, 1243, 1105),
        ],
    )
    def test_node_and_prune_counts_are_pinned(self, shape, nodes, lex_prunes, copy_prunes):
        # the counts of the full-rescan lex check: an incremental check must
        # prune exactly the same branches
        stats = SearchStats()
        outcome = compute_ramsey(LdsParams(*shape), stats=stats)
        assert outcome.nodes_explored == stats.nodes == nodes
        assert (stats.lex_prunes, stats.copy_prunes) == (lex_prunes, copy_prunes)

    def test_caller_stats_accumulate_across_scans(self):
        stats = SearchStats()
        first = compute_ramsey(P5, stats=stats)
        second = compute_ramsey(P5, stats=stats)
        assert first.nodes_explored == second.nodes_explored == 160
        assert stats.nodes == 320

    @pytest.mark.parametrize("params, exact", list(formula_targets()))
    def test_closed_form_agrees_with_search(self, params, exact):
        # a closed form is trusted only where exhaustive search agrees
        assert compute_ramsey(params).result == ExactValue(exact)
        assert bound_report(params).lower <= exact

    def test_bad_window(self):
        with pytest.raises(ValueError):
            compute_ramsey(P5, 5, 4)

    def test_json_shape(self):
        outcome = compute_ramsey(P5)
        doc = outcome.to_json_dict(include_timing=False)
        assert doc["result"] == {"kind": "exact", "value": 6}
        assert doc["params"] == {"c": 3, "n": 1, "m": 1}
        assert doc["good_coloring"] == serialize_coloring(outcome.good_coloring)
        assert "wall_time" not in doc
        assert "wall_time" in outcome.to_json_dict()


class TestDimacs:
    def test_k5_instance_shape(self):
        text = export_dimacs(P5, 5)
        assert "c embeddings=120 edge-sets=60 clauses=120" in text
        assert "\np cnf 10 120\n" in text
        n_vars, clauses = parse_dimacs(text)
        assert n_vars == 10 and len(clauses) == 120

    def test_sat_matches_search_at_the_threshold(self):
        assert dimacs_satisfiable_by_sweep(export_dimacs(P5, 5))
        assert not dimacs_satisfiable_by_sweep(export_dimacs(P5, 6))

    def test_too_small_host_is_trivial(self):
        text = export_dimacs(P5, 4)
        assert "p cnf 6 0" in text
        assert "trivially satisfiable" in text
        assert dimacs_satisfiable_by_sweep(text)

    def test_three_vertex_path_instance(self):
        text = export_dimacs(LdsParams(2, 1, 0), 3)
        assert "c embeddings=6 edge-sets=3 clauses=6" in text

    def test_one_vertex_target_gives_empty_clauses(self):
        text = export_dimacs(LdsParams(1, 0, 0), 2)
        assert not dimacs_satisfiable_by_sweep(text)

    def test_embedding_cap(self):
        with pytest.raises(EmbeddingLimitExceeded):
            export_dimacs(P5, 12, cap=1000)

    def test_sweep_guard(self):
        with pytest.raises(InstanceTooLargeError):
            dimacs_satisfiable_by_sweep(export_dimacs(P5, 7))

    def test_extremal_coloring_satisfies_its_own_instance(self):
        params = LdsParams(3, 2, 1)
        col = construct_two_cliques(params)
        n_vars, clauses = parse_dimacs(export_dimacs(params, col.r))
        assert n_vars == col.slot_count
        assignment = 0
        for idx, ch in enumerate(col.slot_string()):
            if ch == "R":
                assignment |= 1 << idx
        inverted = ((1 << n_vars) - 1) & ~assignment
        assert all(assignment & pos or inverted & neg for pos, neg in clauses)

    @pytest.mark.parametrize("raw", ["p cnf 3\n1 0\n", "1 2 0\n", "p cnf 2 1\n1 2\n"])
    def test_parser_rejects_malformed_text(self, raw):
        with pytest.raises(ValueError):
            parse_dimacs(raw)

    def test_sweep_equals_search_on_small_grid(self):
        for shape in ((1, 1, 0), (1, 1, 1), (2, 1, 1), (3, 1, 1)):
            params = LdsParams(*shape)
            for r in range(2, 7):
                sat = dimacs_satisfiable_by_sweep(export_dimacs(params, r))
                assert sat == (find_good_coloring(params, r) is not None)
