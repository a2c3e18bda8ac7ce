"""Red/blue edge colorings of complete graphs on labeled vertices.

Vertices are labeled 0..r-1 and the r(r-1)/2 edge slots live in lexicographic
pair order (row-major over i < j).  That single canonical order is used
everywhere: storage, the text format, search branching, and DIMACS variable
numbering.  A slot holds 0 while unset, else its ``Color``'s value (1 red,
2 blue); ``get_edge`` returns that int.  Partial colorings are first class,
and the per-vertex neighborhoods track only the edges actually colored.
"""

from __future__ import annotations

from enum import IntEnum


class Color(IntEnum):
    """One of the two edge colors."""

    RED = 1
    BLUE = 2

    @property
    def label(self) -> str:
        return "red" if self is Color.RED else "blue"

    @classmethod
    def from_label(cls, label: str) -> Color:
        try:
            return {"red": cls.RED, "blue": cls.BLUE}[label]
        except KeyError:
            raise ValueError(f"unknown color label {label!r}") from None


# bound once: on Python 3.11 each Color.RED lookup calls EnumType.__getattr__
_RED, _BLUE = Color.RED, Color.BLUE
_SLOT_CHARS = "URB"
_CHAR_SLOTS = {"U": 0, "R": 1, "B": 2}


def require_color(value: object) -> Color:
    """value itself if it is a Color; a bare slot int or anything else raises."""
    if value is _RED or value is _BLUE:
        return value
    raise ValueError(f"expected a Color, got {value!r}")


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

    __slots__ = ("r", "_slots", "_red", "_blue")

    def __init__(self, r: int):
        if r < 1:
            raise ValueError(f"vertex count must be positive, got {r}")
        self.r = r
        self._slots = bytearray(r * (r - 1) // 2)
        self._red = [0] * r
        self._blue = [0] * r

    @property
    def is_complete(self) -> bool:
        return 0 not in self._slots

    def get_edge(self, i: int, j: int) -> int:
        return self._slots[pair_index(i, j, self.r)]

    def set_edge(self, i: int, j: int, slot: Color | int) -> None:
        """Assign a slot; 0 clears.  Symmetric in i and j."""
        r = self.r
        if 0 <= i < j < r:
            idx = i * r - i * (i + 1) // 2 + (j - i - 1)
        else:
            idx = pair_index(i, j, r)  # i > j, or raises on a bad pair
        # identity and exact-type checks: a float, str or bool slot raises
        if not (slot is _RED or slot is _BLUE or type(slot) is int and 0 <= slot <= 2):
            raise ValueError(f"bad slot value {slot!r}")
        slots = self._slots
        old = slots[idx]
        slots[idx] = slot
        # a mask bit is set exactly when the slot holds that color, so XOR
        # clears it from the old color's masks and sets it in the new one's;
        # rewriting a slot's own value flips the same bits twice
        if old:
            masks = self._red if old == 1 else self._blue
            masks[i] ^= 1 << j
            masks[j] ^= 1 << i
        if slot:
            masks = self._red if slot == 1 else self._blue
            masks[i] ^= 1 << j
            masks[j] ^= 1 << i

    def adjacency(self, color: Color) -> list[int]:
        """Per-vertex neighbor masks for one color (do not mutate)."""
        if color is _RED:
            return self._red
        if color is _BLUE:
            return self._blue
        raise ValueError(f"expected a Color, got {color!r}")

    def slot_string(self) -> str:
        return "".join(_SLOT_CHARS[s] for s in self._slots)

    def clone(self) -> TwoColoring:
        dup = TwoColoring.__new__(TwoColoring)
        dup.r = self.r
        dup._slots = bytearray(self._slots)
        dup._red = list(self._red)
        dup._blue = list(self._blue)
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
    if not (body.isascii() and body.isdigit()):
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
