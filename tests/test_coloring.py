from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldsramsey import (
    Color,
    ColoringFormatError,
    TwoColoring,
    all_pairs,
    pair_index,
    parse_coloring,
    serialize_coloring,
)
from tests.conftest import random_complete_coloring


class TestPairIndex:
    def test_known_values(self):
        assert pair_index(0, 1, 5) == 0
        assert pair_index(0, 4, 5) == 3
        assert pair_index(1, 3, 5) == 5
        assert pair_index(3, 4, 5) == 9

    def test_argument_order_is_irrelevant(self):
        assert pair_index(3, 1, 5) == pair_index(1, 3, 5)

    @pytest.mark.parametrize("r", [2, 3, 5, 8, 13, 26, 50])
    def test_bijection_with_canonical_order(self, r):
        assert [pair_index(i, j, r) for i, j in all_pairs(r)] == list(range(r * (r - 1) // 2))

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            pair_index(2, 2, 5)
        with pytest.raises(ValueError):
            pair_index(-1, 2, 5)
        with pytest.raises(ValueError):
            pair_index(0, 5, 5)

    @given(st.integers(2, 40), st.data())
    def test_index_recovers_the_pair(self, r, data):
        i = data.draw(st.integers(0, r - 2))
        j = data.draw(st.integers(i + 1, r - 1))
        assert all_pairs(r)[pair_index(i, j, r)] == (i, j)


class TestTwoColoring:
    def test_starts_unset(self):
        col = TwoColoring(4)
        assert not col.is_complete
        assert col.slot_string() == "UUUUUU"
        assert all(col.get_edge(i, j) == 0 for i, j in all_pairs(4))

    def test_rejects_an_empty_host(self):
        for r in (0, -1):
            with pytest.raises(ValueError, match="vertex count must be positive"):
                TwoColoring(r)

    def test_set_get_and_clear(self):
        col = TwoColoring(4)
        col.set_edge(2, 0, Color.RED)
        assert col.get_edge(0, 2) == Color.RED
        assert col.adjacency(Color.RED)[0] == 1 << 2
        col.set_edge(0, 2, 0)
        assert col.get_edge(0, 2) == 0
        assert col.adjacency(Color.RED)[0] == 0

    def test_overwrite_moves_between_masks(self):
        col = TwoColoring(3)
        col.set_edge(0, 1, Color.RED)
        col.set_edge(0, 1, Color.BLUE)
        assert col.adjacency(Color.RED)[1] == 0
        assert col.adjacency(Color.BLUE)[1] == 1

    def test_rejects_bad_slot_values(self):
        col = TwoColoring(3)
        with pytest.raises(ValueError):
            col.set_edge(0, 1, 7)

    @pytest.mark.parametrize(
        "i, j, slot",
        [
            (2, 2, 1), (-1, 1, 1), (1, -1, 1), (0, 5, 1), (5, 0, 1), (0, 1, -1), (0, 1, 3),
            (0, 1, 1.7), (0, 2, 2.0), (0, 2, "2"), (1, 2, True),
            (0, 1, 1.0), (0, 1, "1"), (0, 1, False),
        ],
    )
    def test_rejected_writes_change_nothing(self, i, j, slot):
        col = TwoColoring(5)
        col.set_edge(0, 1, Color.RED)
        col.set_edge(1, 4, Color.BLUE)
        before = col.clone()
        with pytest.raises(ValueError):
            col.set_edge(i, j, slot)
        assert col == before
        for color in Color:
            assert col.adjacency(color) == before.adjacency(color)

    def test_masks_match_recomputation_after_churn(self, rng: random.Random):
        # the incremental masks are the thing everything else leans on
        col = TwoColoring(9)
        pairs = all_pairs(9)
        for _ in range(4000):
            i, j = rng.choice(pairs)
            if rng.random() < 0.5:
                i, j = j, i
            slot = rng.choice((0, 0, 1, 2, Color.RED, Color.BLUE))
            col.set_edge(i, j, slot)
            assert col.get_edge(i, j) == slot
            # rewriting a slot's own value, as an int or a Color, is a no-op
            before = col.clone()
            col.set_edge(i, j, rng.choice([v for v in (0, 1, 2, *Color) if v == slot]))
            assert col == before
            for color in Color:
                assert col.adjacency(color) == before.adjacency(color)
        for v in range(9):
            for color in (Color.RED, Color.BLUE):
                expect = 0
                for w in range(9):
                    if w != v and col.get_edge(v, w) == color:
                        expect |= 1 << w
                assert col.adjacency(color)[v] == expect
        # completeness is derived from the slots, not counted alongside them
        assert col.is_complete == all(col.get_edge(i, j) for i, j in pairs)
        for i, j in pairs:
            col.set_edge(i, j, rng.choice((1, 2)))
        assert col.is_complete
        col.set_edge(*rng.choice(pairs), 0)
        assert not col.is_complete
        assert TwoColoring(1).is_complete

    def test_neighbors_and_adjacency_views(self):
        col = TwoColoring(5)
        col.set_edge(0, 3, Color.BLUE)
        col.set_edge(0, 4, Color.BLUE)
        assert col.adjacency(Color.BLUE)[0] == (1 << 3) | (1 << 4)
        # a bare slot value is not a color: 1 must not read the blue masks
        for value in (0, 1, 2):
            with pytest.raises(ValueError):
                col.adjacency(value)

    def test_clone_is_independent(self):
        col = TwoColoring(3)
        col.set_edge(0, 1, Color.RED)
        dup = col.clone()
        dup.set_edge(0, 1, Color.BLUE)
        assert col.get_edge(0, 1) == Color.RED
        assert dup.get_edge(0, 1) == Color.BLUE

    def test_equality_is_structural(self):
        a = TwoColoring(3)
        b = TwoColoring(3)
        assert a == b
        a.set_edge(0, 1, Color.RED)
        assert a != b
        assert a != TwoColoring(4)

    def test_equality_with_other_types_is_left_to_them(self):
        # NotImplemented, not False, so the other operand gets its turn
        col = TwoColoring(3)
        assert col.__eq__("x") is NotImplemented
        assert col != "x"


class TestTextFormat:
    def test_round_trip_examples(self):
        col = TwoColoring(3)
        col.set_edge(0, 1, Color.RED)
        col.set_edge(0, 2, Color.BLUE)
        text = serialize_coloring(col)
        assert text == "r=3\nRBU\n"
        assert parse_coloring(text) == col

    def test_round_trip_random(self, rng: random.Random):
        for _ in range(300):
            r = rng.randint(1, 12)
            col = random_complete_coloring(r, rng)
            assert parse_coloring(serialize_coloring(col)) == col

    def test_single_vertex_has_empty_slot_line(self):
        assert serialize_coloring(TwoColoring(1)) == "r=1\n\n"
        assert parse_coloring("r=1\n\n").r == 1

    def test_comments_are_ignored_anywhere(self):
        col = parse_coloring("# header comment\nr=3\n# mid comment\nRRB\n# trailing\n")
        assert col.slot_string() == "RRB"

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("r=3\nRRB", 2, 4),  # missing trailing newline
            ("r=x\nRRB\n", 1, 3),
            ("n=3\nRRB\n", 1, 1),
            ("r=0\n\n", 1, 3),
            ("r=3\nRR\n", 2, 3),
            ("r=3\nRRBB\n", 2, 4),
            ("r=3\nRXB\n", 2, 2),
            ("r=3\nRRB\nextra\n", 3, 1),
            ("r=\u00b2\n\n", 1, 3),  # superscript two: a digit, but not a decimal one
            ("r=\u0663\nRRB\n", 1, 3),  # Arabic-Indic three: decimal, but not ASCII
        ],
    )
    def test_errors_carry_position(self, text, line, column):
        with pytest.raises(ColoringFormatError) as info:
            parse_coloring(text)
        assert info.value.line == line
        assert info.value.column == column

    def test_missing_slot_line(self):
        with pytest.raises(ColoringFormatError):
            parse_coloring("r=3\n")

    def test_empty_input(self):
        with pytest.raises(ColoringFormatError):
            parse_coloring("")

    @given(st.integers(1, 9), st.data())
    def test_parse_accepts_exactly_the_serializer_language(self, r, data):
        slots = data.draw(
            st.text(alphabet="URB", min_size=r * (r - 1) // 2, max_size=r * (r - 1) // 2)
        )
        col = parse_coloring(f"r={r}\n{slots}\n")
        assert col.slot_string() == slots
