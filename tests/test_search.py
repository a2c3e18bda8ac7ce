from __future__ import annotations

import functools
import hashlib
import io
import random
import sys
from itertools import combinations, permutations

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
    SearchConsistencyError,
    SearchStats,
    ValueInterval,
    all_pairs,
    bound_report,
    brute_force_oracle,
    check_export_cap,
    compute_ramsey,
    construct_two_cliques,
    dimacs_satisfiable_by_sweep,
    exact_value,
    export_dimacs,
    find_good_coloring,
    find_mono_lds,
    lds_edges,
    lower_bound,
    pair_index,
    parse_dimacs,
    serialize_coloring,
    write_dimacs,
)
from ldsramsey import search
from ldsramsey.coloring import TwoColoring, bits_of
from ldsramsey.search import _copy_edge_sets, _Engine

P5 = LdsParams(3, 1, 1)


def permutation_export(params: LdsParams, r: int) -> str:
    """Reference DIMACS export: every injective map of the target, deduplicated."""
    k = params.vertex_count
    n_vars = r * (r - 1) // 2
    lines = [
        "c ramsey avoidance instance for a linked double star",
        f"c params c={params.c} n={params.n} m={params.m} target={params.label()}",
        f"c r={r} vars={n_vars} true=red",
    ]
    if r < k:
        lines.append(f"c no {k}-vertex embedding fits: trivially satisfiable")
        lines.append("c embeddings=0 edge-sets=0 clauses=0")
        lines.append(f"p cnf {n_vars} 0")
        return "\n".join(lines) + "\n"
    images = list(permutations(range(r), k))
    edges = lds_edges(params)
    ordered = sorted(
        {tuple(sorted(pair_index(im[a], im[b], r) for a, b in edges)) for im in images}
    )
    lines.append(
        f"c embeddings={len(images)} edge-sets={len(ordered)} clauses={2 * len(ordered)}"
    )
    lines.append(f"p cnf {n_vars} {2 * len(ordered)}")
    for s in ordered:
        lines.append(" ".join([*(str(-(e + 1)) for e in s), "0"]))
        lines.append(" ".join([*(str(e + 1) for e in s), "0"]))
    return "\n".join(lines) + "\n"


def sweep_reference(text: str) -> bool:
    """Reference sweep: try each assignment in turn against every clause,
    the loop the truth-table sweep replaced."""
    n_vars, clauses = parse_dimacs(text)
    full = (1 << n_vars) - 1
    for assignment in range(1 << n_vars):
        inverted = full & ~assignment
        if all(assignment & pos or inverted & neg for pos, neg in clauses):
            return True
    return False


def random_cnf(rng: random.Random, n_vars: int) -> str:
    """DIMACS text of a random CNF: 0..4n+2 clauses of 1..3 literals, so
    repeated and complementary literals occur; with no variables, only
    empty clauses."""
    lines = []
    for _ in range(rng.randint(0, 4 * n_vars + 2)):
        width = rng.randint(1, 3) if n_vars else 0
        lits = [rng.choice((-1, 1)) * rng.randint(1, n_vars) for _ in range(width)]
        lines.append(" ".join([*map(str, lits), "0"]))
    return "".join(f"{line}\n" for line in [f"p cnf {n_vars} {len(lines)}", *lines])


def tuple_edge_sets(params: LdsParams, r: int) -> set[tuple[int, ...]]:
    """Reference copy edge sets as sorted slot tuples: link paths and leaf
    subsets, the build the int masks replaced."""
    c, n, m = params.c, params.n, params.m
    idx = [[pair_index(a, b, r) if a != b else -1 for b in range(r)] for a in range(r)]
    edge_sets: set[tuple[int, ...]] = set()
    for path in permutations(range(r), c):
        link = [idx[a][b] for a, b in zip(path, path[1:])]
        first, last = idx[path[0]], idx[path[-1]]
        rest = [v for v in range(r) if v not in path]
        for left in combinations(rest, n):
            head = link + [first[v] for v in left]
            tail = [last[v] for v in rest if v not in left]
            edge_sets.update(tuple(sorted(head + list(right))) for right in combinations(tail, m))
    return edge_sets


def decode_mask(mask: int, r: int) -> tuple[int, ...]:
    """The sorted slots of an edge-set mask whose slot e is bit N-1-e."""
    top = r * (r - 1) // 2 - 1
    return tuple(sorted(top - b for b in bits_of(mask)))


def mask_grid():
    """(params, r) for c = 1..5, 0 <= m <= n <= 3 and r = k-1..7."""
    for c in range(1, 6):
        for n in range(4):
            for m in range(n + 1):
                params = LdsParams(c, n, m)
                for r in range(max(1, params.vertex_count - 1), 8):
                    yield params, r


def transposition_slot_maps(r: int) -> list[list[int]]:
    """Reference slot permutations induced by swapping vertices k and k+1, k >= 1."""
    maps = []
    for k in range(1, r - 1):
        swap = {k: k + 1, k + 1: k}
        maps.append([pair_index(swap.get(i, i), swap.get(j, j), r) for i, j in all_pairs(r)])
    return maps


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


def tree_key(params: LdsParams) -> tuple[int, int, int]:
    """One label per tree, by the two relabelings that name it otherwise.

    A star S_1(n,m) is S_2(n+m-1, 0), and a side with a single leaf
    extends the link: S_c(n,1) is S_{c+1}(n,0).
    """
    c, n, m = params.c, params.n, params.m
    if c == 1 and n >= 1:
        c, n, m = 2, n + m - 1, 0
    while m == 1 or (n, m) == (1, 0):
        # a lone leaf joins the link
        c, n, m = c + 1, n if m == 1 else 0, 0
    return c, n, m


def formula_groups() -> dict[tuple[int, int, int], list[tuple[LdsParams, int]]]:
    """Every target on at most 8 vertices with a closed-form value, by tree."""
    groups: dict[tuple[int, int, int], list[tuple[LdsParams, int]]] = {}
    for c in range(1, 9):
        for n in range(9 - c):
            for m in range(min(n, 8 - c - n) + 1):
                params = LdsParams(c, n, m)
                exact = exact_value(params)
                if exact is not None:
                    groups.setdefault(tree_key(params), []).append((params, exact[0]))
    return groups


FORMULA_GROUPS = formula_groups()


@functools.cache
def searched_value(key: tuple[int, int, int]):
    """One exhaustive search per tree, on its first label, shared by all labels."""
    return compute_ramsey(FORMULA_GROUPS[key][0][0]).result


def formula_targets():
    """Every label of formula_groups, with the exact value it must meet."""
    slow = {(3, 5, 0)}  # S_2(5,1) and S_3(5,0): several seconds of search
    for key, labels in FORMULA_GROUPS.items():
        marks = [pytest.mark.slow] if key in slow else []
        for params, exact in labels:
            yield pytest.param(params, exact, marks=marks, id=params.label())


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

    def test_node_limit_raises_instead_of_lying(self):
        stats = SearchStats()
        with pytest.raises(NodeLimitReached):
            find_good_coloring(P5, 6, 10, stats)
        assert stats.nodes == 11

    def test_node_limit_is_the_only_stop_past_the_recursion_limit(self):
        # K_62 has 1,891 edge slots, more than the default recursion limit
        # allows frames; the loop holds one frame and stops at its budget
        stats = SearchStats()
        with pytest.raises(NodeLimitReached, match="node limit 5000 hit at depth"):
            find_good_coloring(LdsParams(2, 20, 20), 62, 5000, stats)
        assert stats.nodes == 5001
        outcome = compute_ramsey(LdsParams(2, 20, 20), 62, 62, 5000)
        assert outcome.limit_hit and outcome.nodes_explored == 5001
        assert outcome.result == Indeterminate(
            "node limit 5000 reached before any probe of [62, 62] concluded"
        )

    def test_search_depth_takes_no_stack(self):
        # K_10 has 45 edge slots; 30 frames above the caller's leave room for
        # the copy checks of S_5(2,2), but not for one frame per slot
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            outcome = compute_ramsey(LdsParams(5, 2, 2), 10, 11)
        finally:
            sys.setrecursionlimit(before)
        assert outcome.result == ExactValue(11)
        assert outcome.nodes_explored == 21350 and not outcome.limit_hit

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            find_good_coloring(P5, 0)

    @settings(max_examples=80, deadline=None)
    @given(r=st.integers(3, 11), pin=st.booleans(), data=st.data())
    def test_incremental_lex_matches_rescan(self, r, pin, data):
        # walk one random root-to-leaf DFS path, trying every choice at each
        # depth before descending into a lex-viable one, as the DFS would;
        # the reference rescans the full slot maps, not the engine's tables;
        # pin writes only Red at slot 0, as the engine does
        engine = _Engine(P5, r)
        lex_maps = transposition_slot_maps(r)
        for t in range(len(engine.pairs)):
            viable = []
            for val in (1,) if t == 0 and pin else (1, 2):
                engine.slots[t] = val
                verdict = engine._lex_ok(t)
                assert verdict == rescan_lex_ok(engine.slots, lex_maps, t)
                if verdict:
                    viable.append(val)
            if not viable:
                return
            engine.slots[t] = data.draw(st.sampled_from(viable))
            assert engine._lex_ok(t)


class TestOptions:
    def test_validation(self):
        # the one-vertex target returns at once, but not past a bad budget
        for params in (P5, LdsParams(1, 0, 0)):
            with pytest.raises(ValueError):
                find_good_coloring(params, 6, 0)
            with pytest.raises(ValueError):
                compute_ramsey(params, 6, 6, 0)

    @pytest.mark.parametrize("limit", [True, 2.5, "3"])
    def test_rejects_non_integer_node_limit(self, limit):
        for params in (P5, LdsParams(1, 0, 0)):
            with pytest.raises(ValueError):
                find_good_coloring(params, 6, limit)
            with pytest.raises(ValueError):
                compute_ramsey(params, 6, 6, limit)

    def test_none_is_the_default_budget(self):
        # the positional form perfbench's sat-export check uses
        stats = SearchStats()
        assert find_good_coloring(P5, 6, None, stats) is None
        assert stats.nodes == 145
        outcome = compute_ramsey(P5, 6, 6, None)
        assert outcome.result == ExactValue(6) and not outcome.limit_hit

    def test_scan_floor_seeding(self):
        # compute_ramsey starts an open window at the lower bound
        assert lower_bound(LdsParams(3, 2, 1)).value == 7
        assert lower_bound(LdsParams(9, 2, 2)).value == 17
        assert lower_bound(LdsParams(4, 2, 0)).value == 7
        assert lower_bound(LdsParams(1, 5, 5)).value == 19
        # r(S_4(5,5)) = 20 is the floor itself, so the default window reaches it
        assert lower_bound(LdsParams(4, 5, 5)).value == 20 == exact_value(LdsParams(4, 5, 5))[0]
        # the path P_9 starts at 12, above its own 9 vertices
        assert lower_bound(LdsParams(9, 0, 0)).value == 12


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
        assert outcome.to_json_dict()["result"] == {
            "kind": "interval", "lo": 5, "hi": 5, "hi_certified": False,
        }

    def test_one_vertex_target(self):
        outcome = compute_ramsey(LdsParams(1, 0, 0), 2, 3)
        assert outcome.result == ExactValue(1)
        assert outcome.good_coloring is None

    def test_budget_exhaustion_mid_scan_keeps_the_floor(self):
        probe = SearchStats()
        assert find_good_coloring(P5, 5, stats=probe) is not None
        outcome = compute_ramsey(P5, 5, 6, probe.nodes + 3)
        assert outcome.limit_hit
        assert outcome.result == ValueInterval(6, 7, hi_certified=False)

    def test_budget_exhaustion_below_an_exhausted_probe(self, monkeypatch):
        # the budget is per probe and no small target is known to exhaust
        # at r_lo and then run out below it, so the probes are faked; the
        # order of the target is then the floor
        probed = []

        def probe(*args):
            # positional, through the module attribute, as perfbench's
            # tracer expects: (params, r, node_limit, stats)
            probed.append(args[1])
            if args[1] < 6:
                raise NodeLimitReached("budget spent")
            return None

        monkeypatch.setattr(search, "find_good_coloring", probe)
        outcome = compute_ramsey(P5, 6, 7)
        assert probed == [6, 5]
        assert outcome.limit_hit
        assert outcome.result == ValueInterval(P5.vertex_count, 6)
        assert outcome.good_coloring is None

    def test_budget_too_small_for_anything(self):
        # positional, as the CLI calls it: (params, lo, hi, node_limit, stats)
        stats = SearchStats()
        outcome = compute_ramsey(P5, 6, 6, 5, stats)
        assert outcome.result == Indeterminate(
            "node limit 5 reached before any probe of [6, 6] concluded"
        )
        assert outcome.limit_hit
        assert stats.nodes == outcome.nodes_explored == 6

    def test_default_budget_is_named_in_the_reason(self, monkeypatch):
        def spent(*args):
            raise NodeLimitReached("budget spent")

        monkeypatch.setattr(search, "find_good_coloring", spent)
        outcome = compute_ramsey(P5, 6, 6)
        assert outcome.result == Indeterminate(
            "node limit 1000000000 reached before any probe of [6, 6] concluded"
        )

    def test_completed_coloring_with_a_copy_raises(self, monkeypatch):
        # a real exception, not an assert, so the check survives python -O
        all_red = TwoColoring(5)
        for i, j in all_pairs(5):
            all_red.set_edge(i, j, Color.RED)
        witness = find_mono_lds(all_red, P5)
        assert witness is not None
        monkeypatch.setattr(search, "find_mono_lds", lambda *args: witness)
        with pytest.raises(SearchConsistencyError):
            find_good_coloring(P5, 5)

    @pytest.mark.parametrize(
        "shape, nodes, lex_prunes, copy_prunes",
        [
            ((3, 1, 1, 6), 160, 37, 41),
            ((3, 2, 0, 6), 97, 21, 26),
            ((2, 1, 1, 2), 54, 9, 15),
            ((1, 2, 1, 2), 52, 9, 11),
            ((3, 2, 1, 7), 318, 83, 73),
            ((2, 3, 1, 2), 406, 85, 106),
            ((4, 1, 1, 2), 1293, 342, 285),
            ((3, 2, 2, 9), 1959, 568, 404),
            ((4, 2, 2, 2), 15472, 4615, 3069),
            ((2, 2, 2, 2), 846, 228, 177),
            ((5, 1, 1, 9), 4709, 1243, 1105),
            ((6, 1, 0, 2), 4774, 1250, 1107),
            ((7, 0, 0, 5), 4764, 1250, 1107),
            ((6, 2, 0, 2), 7581, 2083, 1665),
            ((5, 2, 1, 10), 7483, 2071, 1663),
            ((5, 2, 2, 11), 21350, 5961, 4704),
            ((5, 3, 1, 11), 13997, 3991, 2999),
        ],
    )
    def test_node_and_prune_counts_are_pinned(self, shape, nodes, lex_prunes, copy_prunes):
        # the counts of the full-rescan lex check: an incremental check must
        # prune exactly the same branches; shape is (c, n, m, r_lo), each
        # window starting where the default scan started when these were pinned
        c, n, m, r_lo = shape
        stats = SearchStats()
        outcome = compute_ramsey(LdsParams(c, n, m), r_lo, stats=stats)
        assert outcome.nodes_explored == stats.nodes == nodes
        assert (stats.lex_prunes, stats.copy_prunes) == (lex_prunes, copy_prunes)

    @pytest.mark.parametrize(
        "shapes, nodes",
        [
            (((5, 1, 1), (6, 1, 0), (7, 0, 0)), 4709),  # the path P_7
            (((6, 2, 0), (5, 2, 1)), 7483),
        ],
    )
    def test_default_scan_counts_depend_only_on_the_tree(self, shapes, nodes):
        for shape in shapes:
            assert compute_ramsey(LdsParams(*shape)).nodes_explored == nodes, shape

    def test_engine_calls_the_traced_layers_by_name(self, monkeypatch):
        # the traced benchmark counts these two module attributes; a fast
        # path that bypassed them would read as zero calls, not as a speedup
        calls = {"through": 0, "set_edge": 0}
        through = search.has_mono_copy_through_edge
        set_edge = TwoColoring.set_edge

        def counted_through(*args):
            calls["through"] += 1
            return through(*args)

        def counted_set_edge(self, *args):
            calls["set_edge"] += 1
            return set_edge(self, *args)

        monkeypatch.setattr(search, "has_mono_copy_through_edge", counted_through)
        monkeypatch.setattr(TwoColoring, "set_edge", counted_set_edge)
        stats = SearchStats()
        assert compute_ramsey(LdsParams(3, 2, 1), 6, 7, stats=stats).result == ExactValue(7)
        assert (stats.nodes, stats.lex_prunes) == (318, 83)
        assert calls["through"] == stats.nodes - stats.lex_prunes
        assert calls["set_edge"] >= stats.nodes

    def test_caller_stats_accumulate_across_scans(self):
        stats = SearchStats()
        first = compute_ramsey(P5, stats=stats)
        second = compute_ramsey(P5, stats=stats)
        assert first.nodes_explored == second.nodes_explored == 160
        assert stats.nodes == 320

    @pytest.mark.parametrize("params, exact", list(formula_targets()))
    def test_closed_form_agrees_with_search(self, params, exact):
        # a closed form is trusted only where exhaustive search agrees
        assert searched_value(tree_key(params)) == ExactValue(exact)
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


class TestEdgeSetMasks:
    def test_masks_decode_to_the_tuple_sets(self):
        mismatches = []
        for params, r in mask_grid():
            masks = _copy_edge_sets(params, r)
            decoded = {decode_mask(mask, r) for mask in masks}
            if len(decoded) != len(masks) or decoded != tuple_edge_sets(params, r):
                mismatches.append((params.label(), r))
        assert mismatches == []

    def test_descending_masks_are_ascending_tuples(self):
        mismatches = []
        for params, r in mask_grid():
            ordered = [decode_mask(mask, r) for mask in _copy_edge_sets(params, r)]
            if ordered != sorted(tuple_edge_sets(params, r)):
                mismatches.append((params.label(), r))
        assert mismatches == []

    @pytest.mark.parametrize(
        "shape, r, clauses",
        [((3, 1, 1), 4, 0), ((1, 0, 0), 2, 2), ((3, 3, 2), 8, 6720)],
        ids=["r-below-k", "S_1(0,0)", "pinned-S_3(3,2)"],
    )
    def test_writer_matches_export(self, shape, r, clauses):
        params = LdsParams(*shape)
        buf = io.StringIO()
        assert write_dimacs(params, r, buf) == (r * (r - 1) // 2, clauses)
        assert buf.getvalue() == export_dimacs(params, r)

    def test_writer_checks_the_cap_before_writing(self, monkeypatch):
        monkeypatch.setattr(search, "_EXPORT_CAP", 3359)
        buf = io.StringIO()
        with pytest.raises(EmbeddingLimitExceeded):
            write_dimacs(LdsParams(3, 3, 2), 8, buf)
        assert buf.getvalue() == ""


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

    def test_embedding_cap(self, monkeypatch):
        # 30!/27! paths x 27 x 26 leaf choices = 17,100,720 placements > 10^7
        with pytest.raises(EmbeddingLimitExceeded):
            export_dimacs(P5, 30)
        # the cap bounds placements, not injective maps: S_3(3,2) on K_8
        # has 8!/5! paths x C(5,3) x C(2,2) = 3360 of them and 8! = 40320 maps
        params = LdsParams(3, 3, 2)
        monkeypatch.setattr(search, "_EXPORT_CAP", 3360)
        assert "edge-sets=3360" in export_dimacs(params, 8)
        monkeypatch.setattr(search, "_EXPORT_CAP", 3359)
        with pytest.raises(EmbeddingLimitExceeded):
            export_dimacs(params, 8)

    def test_export_cap_rejects_an_empty_host(self):
        with pytest.raises(ValueError, match="vertex count must be positive"):
            check_export_cap(P5, 0)

    def test_sweep_guard(self):
        with pytest.raises(InstanceTooLargeError):
            dimacs_satisfiable_by_sweep(export_dimacs(P5, 8))

    def test_sweep_bound_is_21_variables(self):
        assert dimacs_satisfiable_by_sweep("p cnf 21 2\n21 0\n-1 -21 0\n")
        assert not dimacs_satisfiable_by_sweep("p cnf 21 2\n21 0\n-21 0\n")
        with pytest.raises(InstanceTooLargeError, match="22 variables"):
            dimacs_satisfiable_by_sweep("p cnf 22 1\n1 0\n")

    @pytest.mark.parametrize(
        "text, sat",
        [
            ("p cnf 0 0\n", True),
            ("p cnf 0 1\n0\n", False),
            ("p cnf 3 2\n1 -2 3 0\n0\n", False),
            ("p cnf 1 1\n1 -1 0\n", True),
            ("p cnf 2 3\n1 -1 0\n2 0\n-2 -2 0\n", False),
            ("p cnf 2 2\n2 2 2 0\n-1 2 -1 0\n", True),
            # x1 = x2 = x3 by a cycle of implications, then one sign forced
            ("p cnf 3 4\n1 -2 0\n2 -3 0\n3 -1 0\n-1 -2 0\n", True),
            ("p cnf 3 4\n1 -2 0\n2 -3 0\n3 -1 0\n1 2 0\n", True),
            ("p cnf 3 5\n1 -2 0\n2 -3 0\n3 -1 0\n1 2 0\n-3 0\n", False),
        ],
        ids=[
            "no-vars-no-clauses", "empty-clause-no-vars", "empty-clause", "tautology",
            "tautology-unsat", "repeated-literal", "only-all-false", "only-all-true",
            "all-equal-unsat",
        ],
    )
    def test_sweep_edge_cases(self, text, sat):
        assert dimacs_satisfiable_by_sweep(text) is sat
        assert sweep_reference(text) is sat

    def test_sweep_matches_the_per_assignment_reference(self):
        rng = random.Random(20211)
        verdicts = {True: 0, False: 0}
        for trial in range(400):
            text = random_cnf(rng, trial % 13)
            sat = sweep_reference(text)
            assert dimacs_satisfiable_by_sweep(text) is sat, text
            verdicts[sat] += 1
        assert min(verdicts.values()) >= 100

    def test_extremal_coloring_satisfies_its_own_instance(self):
        params = LdsParams(3, 2, 1)
        col = construct_two_cliques(params)
        n_vars, clauses = parse_dimacs(export_dimacs(params, col.r))
        assert n_vars == len(col.slot_string())
        assignment = 0
        for idx, ch in enumerate(col.slot_string()):
            if ch == "R":
                assignment |= 1 << idx
        inverted = ((1 << n_vars) - 1) & ~assignment
        assert all(assignment & pos or inverted & neg for pos, neg in clauses)

    @pytest.mark.parametrize(
        "raw",
        [
            "p cnf 3\n1 0\n",
            "1 2 0\n",
            "p cnf 2 1\n1 2\n",
            "p cnf 2 1\n5 0\n",
            "p cnf 2 1\n-3 0\n",
            "p cnf 2 1\n1 0\n2 0\n",
            "p cnf 2 2\n1 0\n",
            "p cnf 1 1\n1 0\np cnf 3 1\n",
            "p cnf -1 0\n",
        ],
    )
    def test_parser_rejects_malformed_text(self, raw):
        with pytest.raises(ValueError):
            parse_dimacs(raw)

    def test_parser_requires_a_problem_line(self):
        with pytest.raises(ValueError, match="missing problem line"):
            parse_dimacs("c embeddings=0\nc nothing else\n")

    @pytest.mark.parametrize("c", range(1, 6))
    def test_matches_permutation_reference(self, c):
        # r < k, c = 1, n = m and the one-vertex target S_1(0,0) all occur;
        # mismatches are collected so a failure does not diff whole texts
        mismatches = []
        for n in range(4):
            for m in range(n + 1):
                params = LdsParams(c, n, m)
                k = params.vertex_count
                for r in range(max(1, k - 1), min(k + 2, 7) + 1):
                    if export_dimacs(params, r) != permutation_export(params, r):
                        mismatches.append((params.label(), r))
        assert mismatches == []

    def test_pinned_digest(self):
        # byte identity with the recorded S_3(3,2) instance on K_8
        text = export_dimacs(LdsParams(3, 3, 2), 8)
        assert "c embeddings=40320 edge-sets=3360 clauses=6720" in text
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "537cc737dd8e8107790d5c58959d5a4e54d45908f6165569885d7d8e7dd0efad"
        )

    def test_sweep_equals_search_on_small_grid(self):
        # the sweep knows no symmetry, so this is the reference for the
        # engine's color pin and lex-leader pruning; of these shapes only
        # S_4(1,1) is satisfiable at K_7, and only satisfiable instances
        # test the pins there
        shapes = ((1, 1, 0), (1, 1, 1), (2, 1, 1), (3, 1, 1), (3, 2, 0), (1, 2, 1), (3, 2, 1), (4, 1, 1))
        for shape in shapes:
            params = LdsParams(*shape)
            for r in range(2, 8):
                sat = dimacs_satisfiable_by_sweep(export_dimacs(params, r))
                assert sat == (find_good_coloring(params, r) is not None)
