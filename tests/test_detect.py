from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldsramsey import (
    Color,
    DetectionConsistencyError,
    IncompleteColoringError,
    InstanceTooLargeError,
    InvalidWitnessError,
    LdsParams,
    TwoColoring,
    Witness,
    all_pairs,
    brute_force_oracle,
    disjoint_leaf_selection,
    find_mono_lds,
    has_mono_copy_through_edge,
    lds_edges,
    verify_witness,
)
from ldsramsey import detect
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
            swapped = col.color_swapped()
            for color in (Color.RED, Color.BLUE):
                direct = find_mono_lds(col, params, color) is not None
                mirrored = find_mono_lds(swapped, params, color.opposite) is not None
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

    @pytest.mark.parametrize(
        "c, n, m", [(1, 2, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (4, 2, 1), (3, 3, 0), (5, 1, 0)]
    )
    def test_matches_brute_force_on_partial_colorings(self, c, n, m, rng: random.Random):
        # n > m and m = 0 shapes: a leaf edge on either side, walked from
        # either endpoint, must follow the leaf law with that side one short
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

    def test_works_on_partial_colorings(self):
        # a red P_5 among otherwise unset edges is already a copy
        col = TwoColoring(6)
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 4)):
            col.set_edge(a, b, Color.RED)
        assert has_mono_copy_through_edge(col, LdsParams(3, 1, 1), 2, 3, Color.RED)
        assert not has_mono_copy_through_edge(col, LdsParams(3, 2, 1), 2, 3, Color.RED)


class TestVerifyWitness:
    params = LdsParams(3, 2, 1)
    good = Witness(Color.RED, (0, 2, 1), (3, 4), (5,))

    def test_accepts_the_real_thing(self):
        assert verify_witness(mono(6, Color.RED), self.params, self.good)

    def test_rejects_wrong_color_claim(self):
        blue_claim = Witness(Color.BLUE, (0, 2, 1), (3, 4), (5,))
        assert not verify_witness(mono(6, Color.RED), self.params, blue_claim)

    def test_rejects_flipped_edge(self):
        col = mono(6, Color.RED)
        col.set_edge(0, 3, Color.BLUE)  # kills one n-leaf edge
        assert not verify_witness(col, self.params, self.good)

    def test_rejects_shape_mismatch(self):
        col = mono(6, Color.RED)
        assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2), (3, 4), (5,)))
        assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2, 1), (3,), (5,)))

    def test_rejects_repeated_vertices(self):
        col = mono(6, Color.RED)
        assert not verify_witness(col, self.params, Witness(Color.RED, (0, 2, 1), (3, 3), (5,)))

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidWitnessError):
            verify_witness(mono(6, Color.RED), self.params, Witness(Color.RED, (0, 2, 9), (3, 4), (5,)))


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


@settings(deadline=None, max_examples=40)
@given(st.integers(0, (1 << 10) - 1), st.sampled_from([(3, 1, 1), (3, 2, 0), (1, 2, 1)]))
def test_k5_agreement_hypothesis(bits, shape):
    pairs = all_pairs(5)
    col = TwoColoring(5)
    for idx, (i, j) in enumerate(pairs):
        col.set_edge(i, j, Color.RED if bits >> idx & 1 else Color.BLUE)
    params = LdsParams(*shape)
    assert (find_mono_lds(col, params) is None) == (brute_force_oracle(col, params) is None)
