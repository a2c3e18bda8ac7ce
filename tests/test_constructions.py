from __future__ import annotations

import sys

import pytest

from ldsramsey import (
    CLIQUE_PLUS,
    TWO_CLIQUES,
    CertificationConsistencyError,
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
from ldsramsey import constructions
from ldsramsey.constructions import FAMILIES


def edge_counts(coloring: TwoColoring) -> tuple[int, int]:
    red = sum(1 for i, j in all_pairs(coloring.r) if coloring.get_edge(i, j) == Color.RED)
    return red, len(all_pairs(coloring.r)) - red


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

    def test_rejects_empty_half(self):
        # K_1 and K_2 have a one-vertex larger class
        for shape in ((1, 0, 0), (2, 0, 0), (1, 1, 0)):
            with pytest.raises(ValueError):
                construct_two_cliques(LdsParams(*shape))


class TestCliquePlus:
    def test_smallest_shape(self):
        col = construct_clique_plus(LdsParams(3, 2, 1))
        assert col.r == 6
        # red K_1 u K_5 leaves vertex 0 with an all-blue star
        assert col.adjacency(Color.RED)[0] == 0
        assert col.adjacency(Color.BLUE)[0].bit_count() == 5
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
        # P_3 and the stars have a one-vertex smaller class
        for shape in ((3, 0, 0), (1, 4, 2), (2, 3, 0)):
            with pytest.raises(ValueError):
                construct_clique_plus(LdsParams(*shape))


def every_link_grid():
    """Every cell with c <= 8 and n <= 4, at every link length."""
    for c in range(1, 9):
        for n in range(0, 5):
            for m in range(0, n + 1):
                yield LdsParams(c, n, m)


class TestCertify:
    def test_every_link_certifies_at_its_branch(self):
        checked = 0
        for params in every_link_grid():
            a, b = lower_bound_branches(params)
            for family, build, branch in (
                (TWO_CLIQUES, construct_two_cliques, a),
                (CLIQUE_PLUS, construct_clique_plus, b),
            ):
                try:
                    coloring = build(params)
                except ValueError:
                    continue  # an empty block
                report = certify(coloring, params, construction=family)
                assert (report.verdict, report.method) == ("certified", "detector+analytic")
                assert coloring.r + 1 == branch, (family, params)
                checked += 1
        assert checked == 216

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

    def test_family_name_on_a_foreign_coloring_is_detector_only(self):
        # the analytic check claims nothing on an all-red K_6, so the
        # detector decides alone and its witness stands
        col = TwoColoring(6)
        for i, j in all_pairs(6):
            col.set_edge(i, j, Color.RED)
        params = LdsParams(3, 2, 1)
        report = certify(col, params, construction=TWO_CLIQUES)
        assert (report.verdict, report.method) == ("refuted", "detector")
        assert verify_witness(col, params, report.witness)

    def test_witness_on_an_analytic_certificate_raises(self, monkeypatch):
        # a real exception, not an assert, so the check survives python -O
        params = LdsParams(3, 2, 1)
        col = construct_two_cliques(params)
        all_red = TwoColoring(6)
        for i, j in all_pairs(6):
            all_red.set_edge(i, j, Color.RED)
        witness = find_mono_lds(all_red, params)
        monkeypatch.setattr(constructions, "find_mono_lds", lambda *args: witness)
        with pytest.raises(CertificationConsistencyError):
            certify(col, params, construction=TWO_CLIQUES)
        # with no family name the detector alone decides
        assert certify(col, params).verdict == "refuted"

    def test_link_deeper_than_the_recursion_limit(self):
        # the detector's path walk recurses once per link vertex; a lowered
        # limit stands in for a K_1100 under the default one
        col = TwoColoring(300)
        for i, j in all_pairs(300):
            col.set_edge(i, j, Color.RED)
        params = LdsParams(300, 0, 0)
        before = sys.getrecursionlimit()
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        sys.setrecursionlimit(depth + 150)
        try:
            with pytest.raises(RecursionError):
                find_mono_lds(col, params)
            with pytest.raises(RecursionError):
                certify(col, params)
        finally:
            sys.setrecursionlimit(before)

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
    """True rules a copy out; False claims nothing."""

    def test_certifies_builder_outputs(self):
        checked = 0
        for params in every_link_grid():
            for build in FAMILIES.values():
                try:
                    coloring = build(params)
                except ValueError:
                    continue  # an empty block
                assert analytic_no_mono_verdict(coloring, params) is True, (build, params)
                checked += 1
        assert checked == 216

    def test_detects_forced_copy_in_a_clique(self):
        # a red K_6 holds the copy, so a copy cannot be ruled out
        col = TwoColoring(6)
        for i, j in all_pairs(6):
            col.set_edge(i, j, Color.RED)
        assert analytic_no_mono_verdict(col, LdsParams(3, 2, 1)) is False

    def test_detects_forced_copy_in_complete_bipartite(self):
        col = construct_two_cliques(LdsParams(3, 2, 1))
        # the blue side is K(3,3); a target with classes (2,3) fits it
        assert analytic_no_mono_verdict(col, LdsParams(3, 1, 1)) is False

    def test_undecided_on_generic_colorings(self, rng):
        # a random coloring is usually connected and neither color class
        # is bipartite, so the coarse view rules nothing out
        from tests.conftest import random_complete_coloring

        for _ in range(50):
            col = random_complete_coloring(7, rng)
            assert analytic_no_mono_verdict(col, LdsParams(3, 2, 1)) is False, col

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteColoringError):
            analytic_no_mono_verdict(TwoColoring(4), LdsParams(3, 1, 1))
