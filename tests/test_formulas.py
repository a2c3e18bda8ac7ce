from __future__ import annotations

import pytest

from ldsramsey import (
    LdsParams,
    LowerBound,
    bound_report,
    broom_ramsey,
    exact_value,
    lower_bound,
    lower_bound_branches,
    s2_ramsey,
)


def thm21_reference(params: LdsParams) -> LowerBound:
    """The paper's Thm 2.1 arithmetic for odd c = 2p+1 >= 3 with n + m >= 1."""
    s, p = params.n + params.m, (params.c - 1) // 2
    a, b = 2 * (s + p) - 1, s + 3 * p + 1
    return LowerBound(max(a, b), "A" if a > b else "B" if b > a else "tie")


class TestLowerBound:
    def test_branch_a(self):
        lb = lower_bound(LdsParams(3, 3, 1))
        assert (lb.value, lb.branch) == (9, "A")

    def test_branch_b(self):
        lb = lower_bound(LdsParams(9, 2, 2))
        assert (lb.value, lb.branch) == (17, "B")

    def test_branches_tie(self):
        lb = lower_bound(LdsParams(5, 2, 2))
        assert (lb.value, lb.branch) == (11, "tie")
        assert lower_bound_branches(LdsParams(5, 2, 2)) == (11, 11)

    def test_degenerate_leafless_case_keeps_only_branch_a(self):
        # the one-vertex tree: classes (1, 0), so branch B's t1 + 2t2 - 1 is 0
        lb = lower_bound(LdsParams(1, 0, 0))
        assert (lb.value, lb.branch) == (1, "A")

    def test_every_link_length(self):
        # classes (2, 3) and (4, 3): Burr's bound needs no odd link
        assert lower_bound(LdsParams(1, 2, 1)) == LowerBound(5, "A")
        assert lower_bound(LdsParams(6, 1, 1)) == LowerBound(11, "B")
        assert lower_bound_branches(LdsParams(6, 1, 1)) == (7, 11)

    def test_odd_links_with_a_leaf_keep_the_thm21_arithmetic(self):
        checked = 0
        for c in range(3, 16, 2):
            for n in range(1, 12):
                for m in range(0, n + 1):
                    params = LdsParams(c, n, m)
                    want = thm21_reference(params)
                    assert lower_bound(params) == want, params
                    report = bound_report(params)
                    assert (report.lower, report.lower_branch) == (want.value, want.branch)
                    if report.exact is None:
                        tag = "Thm2.1-branch-B" if want.branch == "B" else "Thm2.1-branch-A"
                        assert report.provenance == tag, params
                    checked += 1
        assert checked == 539

    def test_paths_meet_gerencser_gyarfas(self):
        # r(P_k) = k + floor(k/2) - 1 for k >= 2 (Gerencser and Gyarfas, 1967)
        for k in range(2, 40):
            assert lower_bound(LdsParams(k, 0, 0)).value == k + k // 2 - 1, k
        assert lower_bound(LdsParams(5, 0, 0)) == LowerBound(6, "B")

    def test_every_label_of_a_tree_gets_one_lower(self):
        def same(first: LdsParams, second: LdsParams) -> None:
            a, b = bound_report(first), bound_report(second)
            assert (a.lower, a.lower_branch) == (b.lower, b.lower_branch), (first, second)

        for c in range(1, 12):
            for n in range(0, 9):
                # a single leaf on the m side extends the link
                same(LdsParams(c, n, 1), LdsParams(c + 1, n, 0))
        for n in range(1, 9):
            for m in range(0, n + 1):
                # c = 1 is a star with n + m spokes, as is S_2(n + m - 1, 0)
                same(LdsParams(1, n, m), LdsParams(2, n + m - 1, 0))

    def test_tie_exactly_on_the_boundary_line(self):
        for p in range(1, 21):
            for s in range(1, 3 * p + 4):
                for n in range((s + 1) // 2, s + 1):
                    a, b = lower_bound_branches(LdsParams(2 * p + 1, n, s - n))
                    if s > p + 2:
                        assert a > b
                    elif s < p + 2:
                        assert a < b
                    else:
                        assert a == b

    def test_monotone_in_every_parameter(self):
        for p in range(1, 8):
            for n in range(1, 12):
                for m in range(0, n + 1):
                    here = lower_bound(LdsParams(2 * p + 1, n, m)).value
                    assert lower_bound(LdsParams(2 * p + 3, n, m)).value >= here
                    assert lower_bound(LdsParams(2 * p + 1, n + 1, m)).value >= here
                    assert lower_bound(LdsParams(2 * p + 1, n + 1, m + 1)).value >= here


class TestExactValue:
    def test_long_star_regime(self):
        assert exact_value(LdsParams(3, 3, 2)) == (11, "Thm3.1")

    def test_short_star_regime(self):
        assert exact_value(LdsParams(9, 2, 2)) == (17, "Thm3.2")

    def test_open_middle_ground(self):
        assert exact_value(LdsParams(3, 2, 1)) is None

    def test_broom_route(self):
        assert exact_value(LdsParams(5, 3, 0)) == (10, "YuLiBroom")
        # m = 0 routes through the broom gate even on an even link
        assert exact_value(LdsParams(4, 2, 0)) == (7, "YuLiBroom")

    def test_leafless_side_never_uses_the_linked_formula(self):
        # at m = 0 the broom value can differ from 2(n+m)+c-2 (search
        # confirms 10 here), so routing through the broom gate is
        # substantive, not cosmetic
        got = exact_value(LdsParams(3, 4, 0))
        assert got == (10, "YuLiBroom")
        assert got[0] != 2 * 4 + 3 - 2

    def test_even_links(self):
        assert exact_value(LdsParams(4, 6, 4)) == (19, "BurrErdosS4")
        assert exact_value(LdsParams(2, 6, 2)) == (14, "GrossmanS2")
        assert exact_value(LdsParams(2, 8, 5)) is None

    def test_star_cases_have_no_formula(self):
        assert exact_value(LdsParams(1, 4, 2)) is None
        assert exact_value(LdsParams(2, 3, 0)) is None


class TestBroom:
    def test_long_handle_branch(self):
        assert broom_ramsey(2, 4) == 7

    def test_short_handle_branch(self):
        assert broom_ramsey(3, 4) == 9

    def test_three_vertex_handle_delegates(self):
        assert broom_ramsey(2, 3) is None  # the delegated value sits in a gap
        assert broom_ramsey(5, 3) == 11

    def test_base_cases_are_left_alone(self):
        assert broom_ramsey(1, 5) is None
        assert broom_ramsey(0, 5) is None
        assert broom_ramsey(4, 2) is None

    def test_agrees_with_the_even_link_formula(self):
        for n in range(2, 51):
            assert broom_ramsey(n, 4) == lower_bound(LdsParams(4, n, 0)).value


class TestEvenLinkFormulas:
    def test_s4_values(self):
        assert exact_value(LdsParams(4, 6, 4)) == (19, "BurrErdosS4")
        assert exact_value(LdsParams(4, 2, 0)) == (7, "YuLiBroom")
        assert exact_value(LdsParams(4, 0, 0)) == (5, "BurrErdosS4")

    def test_s4_matches_the_burr_erdos_formula(self):
        for n in range(0, 40):
            for m in range(0, n + 1):
                got = exact_value(LdsParams(4, n, m))
                assert got is not None and got[0] == max(2 * n + 3, n + 2 * m + 5), (n, m)

    @pytest.mark.parametrize(
        "n, m, expect",
        [
            (6, 2, 14),
            (8, 5, None),  # the open gap
            (3, 2, None),
            (1, 1, 5),
            (3, 1, 7),  # search-confirmed
            (7, 2, 15),  # the theorem alone; beyond search's reach
            (2, 2, 8),
            (9, 3, 20),
            (4, 0, None),  # a bare star is outside this formula
        ],
    )
    def test_s2_values(self, n, m, expect):
        assert s2_ramsey(n, m) == expect

    def test_s2_domain(self):
        with pytest.raises(ValueError):
            s2_ramsey(1, 2)

    def test_s2_gate_is_integer_exact(self):
        # n = 7, m = 5: 49 <= 50 puts it just inside; n = 8, m = 5 is out
        assert s2_ramsey(7, 5) is not None
        assert s2_ramsey(8, 5) is None


class TestFormulaLattice:
    def test_solved_regimes_meet_the_lower_bound(self):
        checked = 0
        for p in range(1, 11):
            c = 2 * p + 1
            for n in range(1, 51):
                for m in range(0, n + 1):
                    got = exact_value(LdsParams(c, n, m))
                    if got is None or got[1] not in ("Thm3.1", "Thm3.2"):
                        continue
                    assert got[0] == lower_bound(LdsParams(c, n, m)).value
                    checked += 1
        assert checked > 1000


class TestBoundReport:
    def test_solved_odd_link(self):
        doc = bound_report(LdsParams(3, 3, 1)).to_json_dict()
        assert doc == {
            "params": {"c": 3, "n": 3, "m": 1},
            "lower": 9,
            "lower_branch": "A",
            "exact": 9,
            "provenance": "Thm3.1",
        }

    def test_unsolved_odd_link_reports_the_construction_branch(self):
        report = bound_report(LdsParams(3, 2, 1))
        assert (report.lower, report.lower_branch, report.exact) == (7, "tie", None)
        assert report.provenance == "Thm2.1-branch-A"

    def test_short_star_side(self):
        report = bound_report(LdsParams(9, 2, 2))
        assert (report.lower, report.lower_branch, report.exact) == (17, "B", 17)
        assert report.provenance == "Thm3.2"

    def test_even_link_uses_exact_as_lower(self):
        # at c = 4 Burr's bound is the Burr-Erdos value, so lower meets exact
        report = bound_report(LdsParams(4, 2, 1))
        assert (report.lower, report.lower_branch, report.exact) == (9, "B", 9)
        assert report.provenance == "BurrErdosS4"
        report = bound_report(LdsParams(4, 2, 0))
        assert (report.lower, report.exact, report.provenance) == (7, 7, "YuLiBroom")

    def test_grossman_cells_report_the_construction_bound(self):
        # Grossman, Harary and Klawe add one to Burr's bound on these cells
        report = bound_report(LdsParams(2, 4, 1))
        assert (report.lower, report.exact, report.provenance) == (9, 10, "GrossmanS2")
        report = bound_report(LdsParams(2, 6, 2))
        assert (report.lower, report.exact, report.provenance) == (13, 14, "GrossmanS2")

    def test_uncovered_params_fall_back_to_burr(self):
        # classes (6, 9): 9 + 2*6 - 1 = 20
        report = bound_report(LdsParams(2, 8, 5))
        assert (report.lower, report.exact, report.provenance) == (20, None, "Burr")

    def test_leafless_odd_path_lower_is_its_order(self):
        # P_3 is also the star K_{1,2}: classes (2, 1), both branches give 3
        doc = bound_report(LdsParams(3, 0, 0)).to_json_dict()
        assert doc == {
            "params": {"c": 3, "n": 0, "m": 0},
            "lower": 3,
            "lower_branch": "tie",
            "exact": None,
            "provenance": "Burr",
        }

    def test_exact_never_below_lower(self):
        for c in range(1, 16):
            for n in range(0, 12):
                for m in range(0, n + 1):
                    params = LdsParams(c, n, m)
                    report = bound_report(params)
                    assert report.lower >= params.vertex_count, params
                    if report.exact is not None:
                        assert report.exact >= report.lower
