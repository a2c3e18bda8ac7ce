from __future__ import annotations

import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldsramsey import (
    Color,
    DetectionConsistencyError,
    IncompleteColoringError,
    InstanceTooLargeError,
    LdsParams,
    TwoColoring,
    Witness,
    all_pairs,
    brute_force_oracle,
    construct_clique_plus,
    construct_two_cliques,
    disjoint_leaf_selection,
    find_good_coloring,
    find_mono_lds,
    has_mono_copy_through_edge,
    lds_edges,
    verify_witness,
)
from ldsramsey import detect, search
from ldsramsey.coloring import bits_of
from tests.conftest import coloring_from_red_edges, random_complete_coloring, relabeled


def all_colorings(r: int):
    pairs = all_pairs(r)
    for bits in range(1 << len(pairs)):
        col = TwoColoring(r)
        for idx, (i, j) in enumerate(pairs):
            col.set_edge(i, j, Color.RED if bits >> idx & 1 else Color.BLUE)
        yield col


def edges_on_a_copy(coloring: TwoColoring, params: LdsParams, color: Color) -> set[frozenset]:
    """Reference: every pair {u, v} in the image of some injective map of
    lds_edges whose whole image has the given color."""
    edges = lds_edges(params)
    hit: set[frozenset] = set()
    for perm in itertools.permutations(range(coloring.r), params.vertex_count):
        image = [frozenset((perm[a], perm[b])) for a, b in edges]
        if all(coloring.get_edge(*pair) == color for pair in image):
            hit.update(image)
    return hit


def reference_through(adj: list[int], c: int, n: int, m: int, u: int, v: int) -> bool:
    """The through-edge walker before the single left walk: both
    orientations, one left walk per link position j, and both leaf-edge
    walks even when n = m."""
    if not (adj[u] >> v) & 1:
        return False
    if c == 1:
        return adj[u].bit_count() >= n + m or adj[v].bit_count() >= n + m

    def right(cur: int, used: int, k: int, a1: int, n: int, m: int) -> bool:
        if k == 0:
            pool_a = adj[a1] & ~used
            pool_b = adj[cur] & ~used
            return (
                pool_a.bit_count() >= n and pool_b.bit_count() >= m
                and (pool_a | pool_b).bit_count() >= n + m
            )
        return any(
            right(w, used | 1 << w, k - 1, a1, n, m) for w in bits_of(adj[cur] & ~used)
        )

    def left(cur: int, t: int, used: int, k: int, right_k: int) -> bool:
        if k == 0:
            return right(t, used, right_k, cur, n, m)
        return any(
            left(w, t, used | 1 << w, k - 1, right_k) for w in bits_of(adj[cur] & ~used)
        )

    for s, t in ((u, v), (v, u)):
        for j in range(1, c):
            if left(s, t, 1 << s | 1 << t, j - 1, c - 1 - j):
                return True
    for center, leaf in ((u, v), (v, u)):
        used = 1 << center | 1 << leaf
        if n and right(center, used, c - 1, center, n - 1, m):
            return True
        if m and right(center, used, c - 1, center, m - 1, n):
            return True
    return False


def bfs_distances(adj: list[int], src: int) -> list[int]:
    """Distance from src to every vertex, len(adj) where unreachable."""
    dist = [len(adj)] * len(adj)
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in bits_of(adj[v]):
                if dist[w] > dist[v] + 1:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def reference_path_dfs(
    adj: list[int], color: Color, c: int, n: int, m: int, a1: int, ac: int, dist: list[int]
) -> Witness | None:
    """detect._path_dfs before its twin skip and its reach masks: every
    candidate is tried, filtered by dist, its BFS distance to ac."""
    ac_bit = 1 << ac
    a1_mask = adj[a1]
    ac_mask = adj[ac]
    path = [a1]

    def complete(used: int) -> Witness:
        pmask = used | ac_bit
        sel = disjoint_leaf_selection(bits_of(a1_mask & ~pmask), bits_of(ac_mask & ~pmask), n, m)
        if sel is None:
            raise DetectionConsistencyError("no leaf selection")
        return Witness(color, tuple(path) + (ac,), sel[0], sel[1])

    def extend(cur: int, used: int, placed: int) -> Witness | None:
        if placed == c - 1:
            if (adj[cur] >> ac) & 1:
                return complete(used)
            return None
        more_mid = 1 if placed + 1 < c - 1 else 0
        cand = adj[cur] & ~used & ~ac_bit
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if dist[w] > c - 1 - placed:
                continue
            used2 = used | low
            if (a1_mask & ~used2 & ~ac_bit).bit_count() < n:
                continue
            if (ac_mask & ~used2).bit_count() < m + more_mid:
                continue
            if ((a1_mask | ac_mask) & ~used2 & ~ac_bit).bit_count() < n + m + more_mid:
                continue
            path.append(w)
            found = extend(w, used2, placed + 1)
            if found is not None:
                return found
            path.pop()
        return None

    if c == 2:
        if (adj[a1] >> ac) & 1:
            return complete(1 << a1)
        return None
    return extend(a1, 1 << a1, 1)


def reference_find_in_color(
    coloring: TwoColoring, params: LdsParams, color: Color, walk=reference_path_dfs
) -> Witness | None:
    """detect._find_in_color for c >= 2 before its twin skips, components
    and reach masks: every pair (a_1, a_c) in ascending order that passes
    the degree bounds and the leaf law and lies within BFS distance c - 1
    goes to walk, reference_path_dfs by default."""
    adj = coloring.adjacency(color)
    c, n, m = params.c, params.n, params.m
    dist: dict[int, list[int]] = {}
    for a1 in range(coloring.r):
        if adj[a1].bit_count() <= n:
            continue
        for ac in range(coloring.r):
            if ac == a1 or adj[ac].bit_count() <= m:
                continue
            if ac not in dist:
                dist[ac] = bfs_distances(adj, ac)
            if dist[ac][a1] > c - 1:
                continue
            # the leaf law before any link vertex is placed: necessary for
            # every c, and at c = 2 reference_path_dfs leaves it to its caller
            pools = bits_of(adj[a1] & ~(1 << ac)), bits_of(adj[ac] & ~(1 << a1))
            if disjoint_leaf_selection(*pools, n, m) is None:
                continue
            witness = walk(adj, color, c, n, m, a1, ac, dist[ac])
            if witness is not None:
                return witness
    return None


def twin_class_count(adj: list[int]) -> int:
    """Vertices up to twins, u and v being twins when N(u) - v = N(v) - u."""
    reps: list[int] = []
    for v in range(len(adj)):
        if not any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in reps):
            reps.append(v)
    return len(reps)


def twin_rich_colorings(rng: random.Random):
    """Clique-plus and two-cliques colorings on at most 13 vertices, with
    one or two edges flipped and the vertices relabeled: many vertices
    share their color masks, and the flips make some of them differ."""
    for c in (3, 5, 7):
        for n in range(4):
            for m in range(n + 1):
                params = LdsParams(c, n, m)
                for build in (construct_two_cliques, construct_clique_plus):
                    try:
                        base = build(params)
                    except ValueError:
                        continue
                    if not 4 <= base.r <= 13:
                        continue
                    pairs = all_pairs(base.r)
                    for flips in (1, 2):
                        col = base.clone()
                        for i, j in rng.sample(pairs, flips):
                            col.set_edge(i, j, 3 - col.get_edge(i, j))
                        perm = list(range(base.r))
                        rng.shuffle(perm)
                        yield relabeled(col, perm)


def mono(r: int, color: Color) -> TwoColoring:
    col = TwoColoring(r)
    for i, j in all_pairs(r):
        col.set_edge(i, j, color)
    return col


class TestLeafSelection:
    def test_examples(self):
        assert disjoint_leaf_selection({1, 2, 3}, {3, 4}, 3, 1) == ((1, 2, 3), (4,))
        assert disjoint_leaf_selection({1, 2, 3}, {4, 5}, 3, 2) == ((1, 2, 3), (4, 5))
        assert disjoint_leaf_selection({1, 2}, {2, 3}, 2, 2) is None
        assert disjoint_leaf_selection(set(), set(), 0, 0) == ((), ())

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            disjoint_leaf_selection({1}, {2}, -1, 0)

    def _law(self, a: set, b: set, n: int, m: int) -> bool:
        return len(a) >= n and len(b) >= m and len(a | b) >= n + m

    def test_exhaustive_over_small_universe(self):
        universe = range(6)
        subsets = [set(bits) for size in range(7) for bits in itertools.combinations(universe, size)]
        for a in subsets:
            for b in subsets:
                for n in range(4):
                    for m in range(4):
                        got = disjoint_leaf_selection(a, b, n, m)
                        if not self._law(a, b, n, m):
                            assert got is None
                            continue
                        take_n, take_m = got
                        assert len(take_n) == n and len(take_m) == m
                        assert set(take_n) <= a and set(take_m) <= b
                        assert not set(take_n) & set(take_m)

    @given(
        st.sets(st.integers(0, 9)),
        st.sets(st.integers(0, 9)),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    def test_selection_matches_the_law(self, a, b, n, m):
        got = disjoint_leaf_selection(a, b, n, m)
        assert (got is not None) == self._law(a, b, n, m)
        if got is not None:
            take_n, take_m = got
            assert set(take_n) <= a and set(take_m) <= b
            assert len(take_n) == n and len(take_m) == m
            assert not set(take_n) & set(take_m)


class TestFindMonoLds:
    def test_golden_witness_on_all_red_k6(self):
        # frozen to pin the documented scan order, not just existence
        witness = find_mono_lds(mono(6, Color.RED), LdsParams(3, 2, 1))
        assert witness == Witness(Color.RED, (0, 2, 1), (3, 4), (5,))

    def test_all_blue_restricted_to_red_is_clean(self):
        col = mono(6, Color.BLUE)
        assert find_mono_lds(col, LdsParams(3, 2, 1), Color.RED) is None
        witness = find_mono_lds(col, LdsParams(3, 2, 1))
        assert witness is not None and witness.color is Color.BLUE
        # a bare slot value is refused rather than read as the other color
        with pytest.raises(ValueError):
            find_mono_lds(mono(6, Color.RED), LdsParams(3, 2, 1), 1)

    def test_two_red_cliques_avoid_the_target(self):
        # K_3 u K_3 red, complete bipartite blue: the classic extremal shape
        red = {(i, j) for i in range(3) for j in range(i + 1, 3)}
        red |= {(i, j) for i in range(3, 6) for j in range(i + 1, 6)}
        col = coloring_from_red_edges(6, red)
        assert find_mono_lds(col, LdsParams(3, 2, 1)) is None

    def test_host_smaller_than_target(self):
        assert find_mono_lds(mono(4, Color.RED), LdsParams(3, 1, 1)) is None

    def test_witness_failing_verification_raises(self, monkeypatch):
        # a real exception, not an assert, so the check survives python -O
        monkeypatch.setattr(detect, "verify_witness", lambda *args: False)
        with pytest.raises(DetectionConsistencyError):
            find_mono_lds(mono(6, Color.RED), LdsParams(3, 2, 1))

    def test_incomplete_coloring_is_rejected(self):
        col = TwoColoring(5)
        col.set_edge(0, 1, Color.RED)
        with pytest.raises(IncompleteColoringError):
            find_mono_lds(col, LdsParams(3, 1, 1))

    def test_star_target(self):
        col = mono(4, Color.RED)
        params = LdsParams(1, 2, 1)
        witness = find_mono_lds(col, params)
        assert witness is not None
        assert brute_force_oracle(col, params) is not None

    @pytest.mark.parametrize("c, n, m", [(3, 1, 1), (3, 2, 0)])
    def test_exhaustive_k5_agreement_with_oracle(self, c, n, m):
        params = LdsParams(c, n, m)
        for col in all_colorings(5):
            for color in (Color.RED, Color.BLUE):
                assert (find_mono_lds(col, params, color) is None) == (
                    brute_force_oracle(col, params, color) is None
                )

    @pytest.mark.parametrize("c, n, m", [(1, 1, 1), (3, 1, 1), (3, 2, 0), (3, 2, 1)])
    def test_sampled_k6_agreement_with_oracle(self, c, n, m, rng: random.Random):
        params = LdsParams(c, n, m)
        for _ in range(400):
            col = random_complete_coloring(6, rng)
            for color in (Color.RED, Color.BLUE):
                assert (find_mono_lds(col, params, color) is None) == (
                    brute_force_oracle(col, params, color) is None
                )

    def test_sampled_k8_agreement_with_oracle(self, rng: random.Random):
        params = LdsParams(3, 2, 1)
        for _ in range(200):
            col = random_complete_coloring(8, rng)
            for color in (Color.RED, Color.BLUE):
                assert (find_mono_lds(col, params, color) is None) == (
                    brute_force_oracle(col, params, color) is None
                )

    def test_returned_witnesses_verify(self, rng: random.Random):
        params = LdsParams(3, 2, 1)
        hits = 0
        for _ in range(200):
            col = random_complete_coloring(7, rng)
            witness = find_mono_lds(col, params)
            if witness is not None:
                hits += 1
                assert verify_witness(col, params, witness)
        assert hits > 0

    def test_color_swap_symmetry(self, rng: random.Random):
        params = LdsParams(3, 2, 0)
        for _ in range(100):
            col = random_complete_coloring(6, rng)
            swapped = TwoColoring(6)
            for i, j in all_pairs(6):
                swapped.set_edge(i, j, 3 - col.get_edge(i, j))
            for color in (Color.RED, Color.BLUE):
                direct = find_mono_lds(col, params, color) is not None
                mirrored = find_mono_lds(swapped, params, Color(3 - color)) is not None
                assert direct == mirrored

    def test_relabeling_invariance(self, rng: random.Random):
        params = LdsParams(3, 1, 1)
        for _ in range(100):
            col = random_complete_coloring(6, rng)
            perm = list(range(6))
            rng.shuffle(perm)
            assert (find_mono_lds(col, params) is None) == (
                find_mono_lds(relabeled(col, perm), params) is None
            )


    def test_twin_skip_keeps_the_first_witness(self, rng: random.Random, monkeypatch):
        # the same first witness as the scan that skips no twins, neither
        # among start pairs nor in the path walk; a found witness is
        # verified by find_mono_lds itself, and a copy-free answer is
        # confirmed by the oracle where that is cheap
        targets = [
            LdsParams(c, n, m)
            for c in range(2, 8)
            for n in range(4)
            for m in range(n + 1)
            if c + n + m <= 10
        ]
        colorings = list(twin_rich_colorings(rng))
        calls = {"skip": 0, "reference": 0}

        def counted(walk, key):
            def wrapper(*args):
                calls[key] += 1
                return walk(*args)

            return wrapper

        monkeypatch.setattr(detect, "_path_dfs", counted(detect._path_dfs, "skip"))
        got = {}
        for col in colorings:
            # each color walks one start pair at most per ordered pair of
            # twin classes
            bound = sum(twin_class_count(col.adjacency(color)) ** 2 for color in Color)
            for params in targets:
                before = calls["skip"]
                got[id(col), params] = find_mono_lds(col, params)
                assert calls["skip"] - before <= bound, (params, col)
        reference = functools.partial(
            reference_find_in_color, walk=counted(reference_path_dfs, "reference")
        )
        monkeypatch.setattr(detect, "_find_in_color", reference)
        answers = {False: 0, True: 0}
        for col in colorings:
            for params in targets:
                want = find_mono_lds(col, params)
                assert got[id(col), params] == want, (params, col)
                answers[want is not None] += 1
                if want is None and col.r <= 10 and params.vertex_count <= 7:
                    assert brute_force_oracle(col, params) is None, (params, col)
        assert max(col.r for col in colorings) == 13
        assert min(answers.values()) > 100, answers
        assert calls["skip"] < calls["reference"], calls

    def test_path_walk_skips_adjacent_twins(self):
        # the one-edge flips of an exact clique-plus coloring keep most of
        # its clique twins but are not decided by the filters before the
        # walk; the walk makes 1,224 extend calls over them, and 1,647 if
        # it skips only non-adjacent twins, a loss no answer would show
        params = LdsParams(7, 2, 1)
        base = construct_clique_plus(params)
        assert base.r == 12
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if event == "call" and code.co_name == "extend" and code.co_filename == detect.__file__:
                calls += 1

        sys.setprofile(count)
        try:
            for i, j in all_pairs(base.r):
                col = base.clone()
                col.set_edge(i, j, 3 - col.get_edge(i, j))
                find_mono_lds(col, params)
        finally:
            sys.setprofile(None)
        assert 0 < calls <= 1300, calls


def reference_structure(adj: list[int]) -> list[tuple[int, bool, int]]:
    """Components by a per-neighbour DFS from the lowest unplaced vertex,
    sides by DFS parity: [(mask, bipartite, side-1 mask)] in the order of
    their lowest vertex."""
    r = len(adj)
    comp_id, side, comps = [-1] * r, [0] * r, []
    for start in range(r):
        if comp_id[start] != -1:
            continue
        comp_id[start] = len(comps)
        stack, mask, side1, bipartite = [start], 1 << start, 0, True
        while stack:
            v = stack.pop()
            for w in range(r):
                if not (adj[v] >> w) & 1:
                    continue
                if comp_id[w] == -1:
                    comp_id[w], side[w] = len(comps), side[v] ^ 1
                    mask |= 1 << w
                    side1 |= side[w] << w
                    stack.append(w)
                elif side[w] == side[v]:
                    bipartite = False
        comps.append((mask, bipartite, side1))
    return comps


class TestColorStructure:
    def check(self, col: TwoColoring, color: Color, seen: dict) -> None:
        comps = detect._color_structure(col, color)
        want = reference_structure(col.adjacency(color))
        got = [(info.mask, info.bipartite) for info in comps]
        assert got == [(mask, bipartite) for mask, bipartite, _ in want], (col, color)
        for info, (_, _, want_side1) in zip(comps, want):
            assert info.size == info.mask.bit_count()
            assert info.side1 & ~info.mask == 0
            if info.bipartite:
                # a connected bipartite graph has one 2-coloring once its
                # lowest vertex is put on side 0
                assert info.side1 == want_side1, (col, color)
            seen["bipartite" if info.bipartite else "odd cycle"] += 1
        seen["disconnected"] += len(comps) > 1

    def test_matches_per_neighbour_dfs(self, rng: random.Random):
        seen = {"bipartite": 0, "odd cycle": 0, "disconnected": 0}
        for _ in range(300):
            r = rng.randint(1, 14)
            density = rng.choice((0.05, 0.15, 0.3, 0.5, 0.9))
            col = TwoColoring(r)
            for i, j in all_pairs(r):
                col.set_edge(i, j, Color.RED if rng.random() < density else Color.BLUE)
            for color in (Color.RED, Color.BLUE):
                self.check(col, color, seen)
        assert min(seen.values()) > 100, seen

    def test_special_shapes(self):
        seen = {"bipartite": 0, "odd cycle": 0, "disconnected": 0}
        # two red cliques: red is disconnected, blue is complete bipartite
        red = {(i, j) for i in range(7) for j in range(i + 1, 7) if (i < 3) == (j < 3)}
        col = relabeled(coloring_from_red_edges(7, red), [3, 0, 5, 1, 6, 2, 4])
        for color in (Color.RED, Color.BLUE):
            self.check(col, color, seen)
        blue = detect._color_structure(col, Color.BLUE)
        assert [info.bipartite for info in blue] == [True]
        y = blue[0].side1.bit_count()
        assert sorted((blue[0].size - y, y)) == [3, 4]
        red_comps = detect._color_structure(col, Color.RED)
        assert sorted(info.size for info in red_comps) == [3, 4]
        # edgeless: every vertex its own bipartite component
        for r in (1, 2, 6):
            col = mono(r, Color.RED)
            self.check(col, Color.BLUE, seen)
            comps = detect._color_structure(col, Color.BLUE)
            assert [(c.size, c.bipartite, c.mask, c.side1) for c in comps] == [
                (1, True, 1 << v, 0) for v in range(r)
            ]
        assert seen["odd cycle"] and seen["disconnected"]


class TestThroughEdge:
    def test_union_over_edges_equals_full_detection(self, rng: random.Random):
        # copy exists iff it exists through some edge of its color
        params = LdsParams(3, 1, 1)
        for _ in range(60):
            col = random_complete_coloring(6, rng)
            for color in (Color.RED, Color.BLUE):
                full = find_mono_lds(col, params, color) is not None
                through = any(
                    has_mono_copy_through_edge(col, params, i, j, color)
                    for i, j in all_pairs(6)
                    if col.get_edge(i, j) == color
                )
                assert full == through

    def test_wrong_color_edge_is_never_a_host(self):
        col = mono(6, Color.RED)
        assert not has_mono_copy_through_edge(col, LdsParams(3, 1, 1), 0, 1, Color.BLUE)

    def test_rejects_bad_pairs(self):
        col = mono(4, Color.RED)
        with pytest.raises(ValueError):
            has_mono_copy_through_edge(col, LdsParams(3, 1, 1), 2, 2, Color.RED)
        with pytest.raises(ValueError):
            has_mono_copy_through_edge(col, LdsParams(3, 1, 1), 0, 4, Color.RED)
        with pytest.raises(ValueError):
            has_mono_copy_through_edge(col, LdsParams(3, 1, 1), 0, 1, 1)

    @pytest.mark.parametrize(
        "c, n, m",
        [
            (1, 2, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (4, 2, 1), (3, 3, 0), (5, 1, 0),
            (2, 2, 2), (3, 1, 1), (3, 2, 2), (4, 1, 1), (5, 1, 1),
        ],
    )
    def test_matches_brute_force_on_partial_colorings(self, c, n, m, rng: random.Random):
        # n > m and m = 0 shapes: a leaf edge on either side, walked from
        # either endpoint, must follow the leaf law with that side one short;
        # n = m shapes: one orientation and one leaf side must cover both
        params = LdsParams(c, n, m)
        for _ in range(6):
            r = rng.randint(params.vertex_count, 7)
            col = TwoColoring(r)
            for i, j in all_pairs(r):
                col.set_edge(i, j, rng.choice((0, 1, 1, 2, 2)))
            for color in (Color.RED, Color.BLUE):
                hit = edges_on_a_copy(col, params, color)
                for i, j in all_pairs(r):
                    if col.get_edge(i, j) == color:
                        got = has_mono_copy_through_edge(col, params, i, j, color)
                        assert got == (frozenset((i, j)) in hit), (col, color, i, j)

    def test_matches_reference_walker(self, rng: random.Random):
        # long links (c up to 7) and every 0 <= m <= n <= 4 against the
        # walker that tried each orientation, position and leaf side
        answers = {False: 0, True: 0}
        for _ in range(300):
            r = rng.randint(3, 10)
            c = rng.randint(1, 7)
            n = rng.randint(0, 4)
            m = rng.randint(0, n)
            params = LdsParams(c, n, m)
            col = TwoColoring(r)
            density = rng.choice((0.4, 0.6, 0.8))
            for i, j in all_pairs(r):
                col.set_edge(i, j, 1 if rng.random() < density else rng.choice((0, 2)))
            adj = col.adjacency(Color.RED)
            for i, j in all_pairs(r):
                if col.get_edge(i, j) == Color.RED:
                    want = reference_through(adj, c, n, m, i, j)
                    got = has_mono_copy_through_edge(col, params, i, j, Color.RED)
                    assert got == want, (params, col, i, j)
                    answers[want] += 1
        assert min(answers.values()) > 800, answers

    def test_matches_reference_walker_on_every_k5_graph(self):
        # c = 2 is decided without a walk, and at c = 3 the left walks'
        # last level closes both the links and the leaf edges: every red
        # graph on K_5, every red edge, every 0 <= m <= n <= 3
        shapes = [LdsParams(c, n, m) for c in (2, 3) for n in range(4) for m in range(n + 1)]
        answers = {False: 0, True: 0}
        for col in all_colorings(5):
            adj = col.adjacency(Color.RED)
            for i, j in all_pairs(5):
                if col.get_edge(i, j) == Color.RED:
                    for params in shapes:
                        want = reference_through(adj, params.c, params.n, params.m, i, j)
                        got = has_mono_copy_through_edge(col, params, i, j, Color.RED)
                        assert got == want, (params, col, i, j)
                        answers[want] += 1
        assert min(answers.values()) > 10000, answers

    @pytest.mark.parametrize(
        "shape, r",
        [
            ((3, 3, 2), 11), ((4, 2, 2), 11), ((5, 3, 0), 10), ((7, 0, 0), 9), ((2, 3, 2), 9),
            ((2, 3, 3), 11), ((2, 8, 0), 16), ((5, 1, 1), 9),
        ],
    )
    def test_matches_reference_walker_on_search_states(self, shape, r, monkeypatch):
        # every state a search visits until it exhausts (or, for the star
        # S_2(8,0) on K_16, completes a good coloring): a row-major prefix
        # whose earlier edges carry no copy, checked at its newest edge.
        # Vertices the rows have not reached see only the first rows, so
        # many are twins (equal masks), the case the walker's twin skip
        # prunes.  c = 2 with n = m and with m = 0 takes the direct check;
        # S_5(1,1) is a long link with n = m = 1
        c, n, m = shape
        seen = {False: 0, True: 0, "twin pairs": 0}
        check = search.has_mono_copy_through_edge

        def checked(coloring, params, u, v, color):
            got = check(coloring, params, u, v, color)
            adj = coloring.adjacency(color)
            assert got == reference_through(adj, c, n, m, u, v), (coloring, u, v, color)
            seen[got] += 1
            rest = [w for w in range(r) if adj[w] and w not in (u, v)]
            seen["twin pairs"] += sum(adj[a] == adj[b] for a, b in itertools.combinations(rest, 2))
            return got

        monkeypatch.setattr(search, "has_mono_copy_through_edge", checked)
        assert (find_good_coloring(LdsParams(*shape), r) is None) == (shape != (2, 8, 0))
        assert min(seen.values()) > 100, seen

    def test_works_on_partial_colorings(self):
        # a red P_5 among otherwise unset edges is already a copy
        col = TwoColoring(6)
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 4)):
            col.set_edge(a, b, Color.RED)
        assert has_mono_copy_through_edge(col, LdsParams(3, 1, 1), 2, 3, Color.RED)
        assert not has_mono_copy_through_edge(col, LdsParams(3, 2, 1), 2, 3, Color.RED)

    def test_leafless_side_takes_no_leaf_edge(self):
        # the red S_3(3,0) 3-2-0 with leaves 4, 5, 6 on 3 has its a_c at 0,
        # but the pendant edge {0, 1} lies on no copy: with m = 0 the a_c
        # side has no leaf to spend on it
        col = TwoColoring(7)
        for a, b in ((0, 1), (0, 2), (2, 3), (3, 4), (3, 5), (3, 6)):
            col.set_edge(a, b, Color.RED)
        params = LdsParams(3, 3, 0)
        assert has_mono_copy_through_edge(col, params, 0, 2, Color.RED)
        assert not has_mono_copy_through_edge(col, params, 0, 1, Color.RED)


class TestVerifyWitness:
    params = LdsParams(3, 2, 1)
    good = Witness(Color.RED, (0, 2, 1), (3, 4), (5,))

    def test_accepts_the_real_thing(self):
        assert verify_witness(mono(6, Color.RED), self.params, self.good)

    def test_rejects_wrong_color_claim(self):
        blue_claim = Witness(Color.BLUE, (0, 2, 1), (3, 4), (5,))
        assert not verify_witness(mono(6, Color.RED), self.params, blue_claim)

    def test_rejects_flipped_edge(self):
        for edge in ((0, 3), (1, 5)):  # one n-leaf edge, then one m-leaf edge
            col = mono(6, Color.RED)
            col.set_edge(*edge, Color.BLUE)
            assert not verify_witness(col, self.params, self.good), edge

    def test_rejects_shape_mismatch(self):
        col = mono(6, Color.RED)
        assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2), (3, 4), (5,)))
        assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2, 1), (3,), (5,)))

    def test_rejects_repeated_vertices(self):
        col = mono(6, Color.RED)
        assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2, 1), (3, 3), (5,)))

    def test_out_of_range_is_invalid(self):
        col = mono(6, Color.RED)
        for bad in (-1, 6, 9):
            assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2, bad), (3, 4), (5,)))
            assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2, 1), (3, 4), (bad,)))


class TestOracleGuard:
    def test_host_too_large(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_oracle(mono(11, Color.RED), LdsParams(3, 1, 1))

    def test_target_too_large(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_oracle(mono(10, Color.RED), LdsParams(3, 3, 3))

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteColoringError):
            brute_force_oracle(TwoColoring(5), LdsParams(3, 1, 1))

    def test_bare_slot_value_restrict_is_refused(self):
        # the same refusal as the detector's, not a Witness(color=1, ...)
        col = mono(6, Color.RED)
        for detector in (find_mono_lds, brute_force_oracle):
            with pytest.raises(ValueError, match="expected a Color, got 1"):
                detector(col, LdsParams(3, 2, 1), 1)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, (1 << 10) - 1), st.sampled_from([(3, 1, 1), (3, 2, 0), (1, 2, 1)]))
def test_k5_agreement_hypothesis(bits, shape):
    pairs = all_pairs(5)
    col = TwoColoring(5)
    for idx, (i, j) in enumerate(pairs):
        col.set_edge(i, j, Color.RED if bits >> idx & 1 else Color.BLUE)
    params = LdsParams(*shape)
    assert (find_mono_lds(col, params) is None) == (brute_force_oracle(col, params) is None)
