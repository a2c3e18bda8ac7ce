"""Red/blue edge colorings of complete graphs on labeled vertices.

Vertices are labeled 0..r-1 and the r(r-1)/2 edge slots live in lexicographic
pair order (row-major over i < j).  That single canonical order is used
everywhere: storage, the text format, search branching, and DIMACS variable
numbering.  Partial colorings are first class: a slot may be unset, and the
per-vertex neighborhoods track only the edges actually colored.
"""

from __future__ import annotations

from enum import IntEnum


class Color(IntEnum):
    """One of the two edge colors."""

    RED = 1
    BLUE = 2

    @property
    def opposite(self) -> Color:
        return Color.BLUE if self is Color.RED else Color.RED

    @property
    def label(self) -> str:
        return "red" if self is Color.RED else "blue"

    @classmethod
    def from_label(cls, label: str) -> Color:
        try:
            return {"red": cls.RED, "blue": cls.BLUE}[label]
        except KeyError:
            raise ValueError(f"unknown color label {label!r}") from None


class EdgeSlot(IntEnum):
    """State of one edge slot; UNSET occurs only in partial colorings."""

    UNSET = 0
    RED = 1
    BLUE = 2


_SLOT_CHARS = "URB"
_CHAR_SLOTS = {"U": 0, "R": 1, "B": 2}


class ColoringFormatError(ValueError):
    """Raised on malformed coloring text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class IncompleteColoringError(ValueError):
    """Raised when an operation requires a fully colored graph."""


def pair_index(i: int, j: int, r: int) -> int:
    """Canonical slot index of the edge {i, j} in K_r.

    Slots are ordered (0,1), (0,2), ..., (0,r-1), (1,2), ..., (r-2,r-1).
    Arguments may be given in either order; i == j or an out-of-range
    endpoint is rejected.
    """
    if i == j:
        raise ValueError(f"invalid pair ({i}, {j}): endpoints must differ")
    if i > j:
        i, j = j, i
    if i < 0 or j >= r:
        raise ValueError(f"invalid pair ({i}, {j}) for r={r}")
    return i * r - i * (i + 1) // 2 + (j - i - 1)


def all_pairs(r: int) -> list[tuple[int, int]]:
    """All vertex pairs of K_r in canonical slot order."""
    return [(i, j) for i in range(r) for j in range(i + 1, r)]


def bits_of(mask: int) -> list[int]:
    """Set bit positions of ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TwoColoring:
    """K_r with red/blue/unset edge slots and incremental neighborhoods.

    Neighborhoods are per-vertex bit masks, one per color, so degree-style
    queries cost a single popcount and stay consistent with the slot array
    under every mutation.  A fully colored instance is treated as immutable
    by convention and is safe to share across concurrent readers.
    """

    __slots__ = ("r", "_slots", "_red", "_blue", "_unset")

    def __init__(self, r: int):
        if r < 1:
            raise ValueError(f"vertex count must be positive, got {r}")
        self.r = r
        n_slots = r * (r - 1) // 2
        self._slots = bytearray(n_slots)
        self._red = [0] * r
        self._blue = [0] * r
        self._unset = n_slots

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def is_complete(self) -> bool:
        return self._unset == 0

    def get_edge(self, i: int, j: int) -> EdgeSlot:
        return EdgeSlot(self._slots[pair_index(i, j, self.r)])

    def set_edge(self, i: int, j: int, slot: EdgeSlot | Color | int) -> None:
        """Assign a slot; UNSET clears.  Symmetric in i and j."""
        idx = pair_index(i, j, self.r)
        val = int(slot)
        if not 0 <= val <= 2:
            raise ValueError(f"bad slot value {slot!r}")
        old = self._slots[idx]
        if old == val:
            return
        bi = 1 << i
        bj = 1 << j
        if old == 1:
            self._red[i] &= ~bj
            self._red[j] &= ~bi
        elif old == 2:
            self._blue[i] &= ~bj
            self._blue[j] &= ~bi
        else:
            self._unset -= 1
        if val == 1:
            self._red[i] |= bj
            self._red[j] |= bi
        elif val == 2:
            self._blue[i] |= bj
            self._blue[j] |= bi
        else:
            self._unset += 1
        self._slots[idx] = val

    def neighbor_mask(self, v: int, color: Color) -> int:
        if not 0 <= v < self.r:
            raise ValueError(f"vertex {v} out of range for r={self.r}")
        return self._red[v] if color is Color.RED else self._blue[v]

    def adjacency(self, color: Color) -> list[int]:
        """Per-vertex neighbor masks for one color (do not mutate)."""
        return self._red if color is Color.RED else self._blue

    def slot_string(self) -> str:
        return "".join(_SLOT_CHARS[s] for s in self._slots)

    def clone(self) -> TwoColoring:
        dup = TwoColoring.__new__(TwoColoring)
        dup.r = self.r
        dup._slots = bytearray(self._slots)
        dup._red = list(self._red)
        dup._blue = list(self._blue)
        dup._unset = self._unset
        return dup

    def color_swapped(self) -> TwoColoring:
        """New coloring with red and blue exchanged on every slot."""
        dup = TwoColoring(self.r)
        for idx, val in enumerate(self._slots):
            if val:
                dup._slots[idx] = 3 - val
        dup._red = list(self._blue)
        dup._blue = list(self._red)
        dup._unset = self._unset
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoColoring):
            return NotImplemented
        return self.r == other.r and self._slots == other._slots

    def __repr__(self) -> str:
        return f"TwoColoring(r={self.r}, slots={self.slot_string()!r})"


def serialize_coloring(coloring: TwoColoring) -> str:
    """Two-line text form: ``r=<r>`` then the R/B/U slot string.

    Both lines end with a newline; the slot line may be empty (r = 1).
    """
    return f"r={coloring.r}\n{coloring.slot_string()}\n"


def parse_coloring(text: str) -> TwoColoring:
    """Inverse of serialize_coloring.

    Lines starting with ``#`` are comments and are ignored wherever they
    appear.  Errors name the offending 1-based line and column.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise ColoringFormatError(
            "missing trailing newline", max(len(lines), 1), len(lines[-1]) + 1 if lines else 1
        )
    significant: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        if raw.startswith("#"):
            continue
        significant.append((lineno, raw))
    if not significant:
        raise ColoringFormatError("missing header line", len(lines) + 1)
    header_line, header = significant[0]
    if not header.startswith("r="):
        raise ColoringFormatError("header must look like r=<count>", header_line)
    body = header[2:]
    if not body.isdigit():
        raise ColoringFormatError("vertex count must be a decimal integer", header_line, 3)
    r = int(body)
    if r < 1:
        raise ColoringFormatError("vertex count must be positive", header_line, 3)
    if len(significant) < 2:
        raise ColoringFormatError("missing slot line", header_line + 1)
    if len(significant) > 2:
        raise ColoringFormatError("unexpected extra line", significant[2][0])
    slot_line, slots = significant[1]
    expected = r * (r - 1) // 2
    if len(slots) != expected:
        raise ColoringFormatError(
            f"slot line has {len(slots)} characters, expected {expected}",
            slot_line,
            min(len(slots), expected) + 1,
        )
    coloring = TwoColoring(r)
    pairs = all_pairs(r)
    for idx, ch in enumerate(slots):
        val = _CHAR_SLOTS.get(ch)
        if val is None:
            raise ColoringFormatError(f"illegal slot character {ch!r}", slot_line, idx + 1)
        if val:
            i, j = pairs[idx]
            coloring.set_edge(i, j, val)
    return coloring
