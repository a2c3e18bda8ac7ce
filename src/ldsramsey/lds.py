"""The target tree: two stars whose centers are joined by a path.

The canonical labeling puts the link path on 0..c-1, the n star leaves on
c..c+n-1 (attached to vertex 0), and the m star leaves on c+n..c+n+m-1
(attached to vertex c-1).  With c = 1 a single vertex serves as both
centers and the tree degenerates to a star with n+m spokes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Color, require_color


@dataclass(frozen=True)
class LdsParams:
    """Shape parameters (c, n, m); normalized so that n >= m."""

    c: int
    n: int
    m: int

    def __post_init__(self) -> None:
        for name in ("c", "n", "m"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.c < 1:
            raise ValueError(f"link length c must be at least 1, got {self.c}")
        if self.m < 0 or self.n < 0:
            raise ValueError(f"star sizes must be nonnegative, got n={self.n}, m={self.m}")
        if self.n < self.m:
            # the two star sides are interchangeable; keep the larger first
            n, m = self.m, self.n
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "m", m)

    @property
    def is_odd_link(self) -> bool:
        return self.c % 2 == 1

    @property
    def vertex_count(self) -> int:
        return self.c + self.n + self.m

    def label(self) -> str:
        return f"S_{self.c}({self.n},{self.m})"

    def to_json_dict(self) -> dict[str, int]:
        return {"c": self.c, "n": self.n, "m": self.m}


def lds_edges(params: LdsParams) -> list[tuple[int, int]]:
    """Edge list of the canonically labeled target tree.

    Path edges come first, then the n-side star edges, then the m-side.
    """
    c, n, m = params.c, params.n, params.m
    edges = [(i, i + 1) for i in range(c - 1)]
    edges += [(0, c + i) for i in range(n)]
    edges += [(c - 1, c + n + i) for i in range(m)]
    return edges


def tree_class_sizes(params: LdsParams) -> tuple[int, int]:
    """Sizes of the two bipartition classes, the class of vertex 0 first.

    Every embedding into a bipartite host must place these two classes on
    opposite sides, which is what makes the extremal colorings work.
    """
    c, n, m = params.c, params.n, params.m
    odd_positions = (c + 1) // 2
    even_positions = c // 2
    if c % 2 == 1:
        return odd_positions, even_positions + n + m
    return odd_positions + m, even_positions + n


def _vertex_tuple(value: object) -> tuple[int, ...]:
    # a JSON array of integers; bools, floats and strings are not vertices
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ValueError(f"expected an array of integer vertices, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class Witness:
    """A monochromatic embedding: link path plus the two leaf sets."""

    color: Color
    path: tuple[int, ...]
    n_leaves: tuple[int, ...]
    m_leaves: tuple[int, ...]

    def __post_init__(self) -> None:
        require_color(self.color)

    def to_json_dict(self) -> dict:
        return {
            "color": self.color.label,
            "path": list(self.path),
            "n_leaves": list(self.n_leaves),
            "m_leaves": list(self.m_leaves),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> Witness:
        try:
            color = Color.from_label(data["color"])
            path = _vertex_tuple(data["path"])
            n_leaves = _vertex_tuple(data["n_leaves"])
            m_leaves = _vertex_tuple(data["m_leaves"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed witness document: {exc}") from None
        return cls(color, path, n_leaves, m_leaves)

    def vertices(self) -> tuple[int, ...]:
        return self.path + self.n_leaves + self.m_leaves
