from __future__ import annotations

import pytest

from ldsramsey import (
    CLIQUE_PLUS,
    TWO_CLIQUES,
    Color,
    IncompleteColoringError,
    LdsParams,
    TwoColoring,
    all_pairs,
    analytic_no_mono_verdict,
    certify,
    construct_clique_plus,
    construct_two_cliques,
    find_mono_lds,
    lower_bound_branches,
    serialize_coloring,
    verify_witness,
)


def edge_counts(coloring: TwoColoring) -> tuple[int, int]:
    red = sum(1 for i, j in all_pairs(coloring.r) if coloring.get_edge(i, j) == Color.RED)
    return red, coloring.slot_count - red


def grid():
    for p in (1, 2):
        for n in range(1, 5):
            for m in range(0, min(n, 2) + 1):
                yield LdsParams(2 * p + 1, n, m)


class TestTwoCliques:
    def test_smallest_shape(self):
        col = construct_two_cliques(LdsParams(3, 2, 1))
        assert col.r == 6
        for i, j in all_pairs(6):
            same_block = (i < 3) == (j < 3)
            assert col.get_edge(i, j) == (Color.RED if same_block else Color.BLUE)
        assert edge_counts(col) == (6, 9)

    def test_degenerate_but_legal_two_vertices(self):
        col = construct_two_cliques(LdsParams(3, 1, 0))
        assert col.r == 2
        assert col.get_edge(0, 1) == Color.BLUE

    def test_edge_counts_at_p2(self):
        col = construct_two_cliques(LdsParams(5, 3, 2))
        assert col.r == 12
        assert edge_counts(col) == (30, 36)

    def test_golden_serialization(self):
        col = construct_two_cliques(LdsParams(3, 2, 1))
        assert serialize_coloring(col) == "r=6\nRRBBBRBBBBBBRRR\n"

    def test_rejects_even_or_short_links(self):
        with pytest.raises(ValueError):
            construct_two_cliques(LdsParams(4, 2, 1))
        with pytest.raises(ValueError):
            construct_two_cliques(LdsParams(1, 2, 1))

    def test_rejects_empty_half(self):
        with pytest.raises(ValueError):
            construct_two_cliques(LdsParams(3, 0, 0))


class TestCliquePlus:
    def test_smallest_shape(self):
        col = construct_clique_plus(LdsParams(3, 2, 1))
        assert col.r == 6
        # red K_1 u K_5 leaves vertex 0 with an all-blue star
        assert col.neighbor_mask(0, Color.RED) == 0
        assert col.neighbor_mask(0, Color.BLUE).bit_count() == 5
        for i, j in all_pairs(6):
            if i >= 1:
                assert col.get_edge(i, j) == Color.RED

    def test_sixteen_vertex_case(self):
        col = construct_clique_plus(LdsParams(9, 2, 2))
        assert col.r == 16
        red, blue = edge_counts(col)
        assert red == 6 + 66  # K_4 plus K_12
        assert blue == 4 * 12

    def test_five_vertex_instance(self):
        assert construct_clique_plus(LdsParams(3, 1, 1)).r == 5

    def test_rejects_bare_path_corner(self):
        with pytest.raises(ValueError):
            construct_clique_plus(LdsParams(3, 0, 0))
        with pytest.raises(ValueError):
            construct_clique_plus(LdsParams(7, 0, 0))

    def test_rejects_even_link(self):
        with pytest.raises(ValueError):
            construct_clique_plus(LdsParams(2, 2, 1))


class TestCertify:
    @pytest.mark.parametrize("params", list(grid()), ids=lambda p: p.label())
    def test_grid_certifies_both_families(self, params):
        a, b = lower_bound_branches(params)
        two = construct_two_cliques(params)
        report = certify(two, params, construction=TWO_CLIQUES)
        assert report.verdict == "certified"
        assert report.method == "detector+analytic"
        assert two.r + 1 == a

        plus = construct_clique_plus(params)
        report = certify(plus, params, construction=CLIQUE_PLUS)
        assert report.verdict == "certified"
        assert report.method == "detector+analytic"
        assert plus.r + 1 == b

    def test_all_red_is_refuted_with_verifying_witness(self):
        col = TwoColoring(6)
        for i, j in all_pairs(6):
            col.set_edge(i, j, Color.RED)
        params = LdsParams(3, 2, 1)
        report = certify(col, params)
        assert report.verdict == "refuted"
        assert report.method == "detector"
        assert report.witness is not None
        assert verify_witness(col, params, report.witness)

    def test_incomplete_coloring_rejected(self):
        with pytest.raises(IncompleteColoringError):
            certify(TwoColoring(4), LdsParams(3, 1, 1))

    def test_unknown_construction_name_rejected(self):
        col = construct_two_cliques(LdsParams(3, 2, 1))
        with pytest.raises(ValueError):
            certify(col, LdsParams(3, 2, 1), construction="mystery")

    def test_report_json_shape(self):
        params = LdsParams(3, 2, 1)
        doc = certify(construct_two_cliques(params), params, construction=TWO_CLIQUES).to_json_dict()
        assert doc == {
            "construction": "two-cliques",
            "params": {"c": 3, "n": 2, "m": 1},
            "r": 6,
            "verdict": "certified",
            "witness": None,
            "method": "detector+analytic",
        }


class TestOneMoreVertex:
    """Extending an extremal coloring by any seventh vertex breaks it."""

    def _extended(self, join_red_to: set[int]) -> TwoColoring:
        base = construct_two_cliques(LdsParams(3, 2, 1))
        col = TwoColoring(7)
        for i, j in all_pairs(6):
            col.set_edge(i, j, base.get_edge(i, j))
        for v in range(6):
            col.set_edge(v, 6, Color.RED if v in join_red_to else Color.BLUE)
        return col

    def test_all_red_apex_gives_red_witness(self):
        col = self._extended(set(range(6)))
        witness = find_mono_lds(col, LdsParams(3, 2, 1))
        assert witness is not None and witness.color is Color.RED
        assert verify_witness(col, LdsParams(3, 2, 1), witness)

    def test_one_clique_apex_gives_blue_witness(self):
        # red side only reaches K_4; the blue side becomes K(4,3) and hosts it
        col = self._extended({0, 1, 2})
        witness = find_mono_lds(col, LdsParams(3, 2, 1))
        assert witness is not None and witness.color is Color.BLUE
        assert verify_witness(col, LdsParams(3, 2, 1), witness)


class TestAnalyticVerdict:
    def test_certifies_builder_outputs(self):
        for params in grid():
            assert analytic_no_mono_verdict(construct_two_cliques(params), params) is True
            assert analytic_no_mono_verdict(construct_clique_plus(params), params) is True

    def test_detects_forced_copy_in_a_clique(self):
        col = TwoColoring(6)
        for i, j in all_pairs(6):
            col.set_edge(i, j, Color.RED)
        assert analytic_no_mono_verdict(col, LdsParams(3, 2, 1)) is False

    def test_detects_forced_copy_in_complete_bipartite(self):
        col = construct_two_cliques(LdsParams(3, 2, 1))
        # the blue side is K(3,3); a target with classes (2,3) fits it
        assert analytic_no_mono_verdict(col, LdsParams(3, 1, 1)) is False

    def test_undecided_on_generic_colorings(self, rng):
        # a random coloring is usually connected and neither clique nor
        # complete bipartite per color, so the coarse view must abstain
        from tests.conftest import random_complete_coloring

        abstained = 0
        for _ in range(50):
            col = random_complete_coloring(7, rng)
            if analytic_no_mono_verdict(col, LdsParams(3, 2, 1)) is None:
                abstained += 1
        assert abstained > 0

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteColoringError):
            analytic_no_mono_verdict(TwoColoring(4), LdsParams(3, 1, 1))
