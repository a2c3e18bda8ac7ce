"""Extremal colorings witnessing the lower bounds, and their certification.

The two families realize the two branches of Burr's bound for every link
length, reading their block sizes off the tree's bipartition classes.
Both make the red graph a disjoint union of cliques and the blue graph
complete bipartite, so certification can be argued two ways: by the
exhaustive detector, and analytically from component sizes and bipartition
fit.  certify() runs both on builder outputs and raises when the detector
finds a copy that the analytic check ruled out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Color, IncompleteColoringError, TwoColoring
from .detect import _color_structure, find_mono_lds
from .lds import LdsParams, Witness, tree_class_sizes

TWO_CLIQUES = "two-cliques"
CLIQUE_PLUS = "clique-plus"

METHOD_DETECTOR = "detector"
METHOD_DETECTOR_ANALYTIC = "detector+analytic"


class CertificationConsistencyError(RuntimeError):
    """Analytic precheck and detector disagreed; one of them is broken."""


@dataclass(frozen=True)
class CertReport:
    """Outcome of certifying one coloring against one parameter set."""

    params: LdsParams
    construction: str | None
    r: int
    verdict: str  # "certified" | "refuted"
    witness: Witness | None
    method: str

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction,
            "params": self.params.to_json_dict(),
            "r": self.r,
            "verdict": self.verdict,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "method": self.method,
        }


def _split_coloring(r: int, first_size: int) -> TwoColoring:
    # red inside each block, blue across
    coloring = TwoColoring(r)
    for i in range(r):
        for j in range(i + 1, r):
            same = (i < first_size) == (j < first_size)
            coloring.set_edge(i, j, Color.RED if same else Color.BLUE)
    return coloring


def construct_two_cliques(params: LdsParams) -> TwoColoring:
    """Red = two equal cliques on t1-1 vertices each, blue across.

    t1 is the larger bipartition class of the tree, so the coloring lives
    on 2t1-2 vertices, one short of Burr's branch A.  Raises ValueError
    when t1 = 1 would leave the cliques empty.
    """
    half = max(tree_class_sizes(params)) - 1
    if half < 1:
        raise ValueError(f"degenerate construction: empty cliques for {params.label()}")
    return _split_coloring(2 * half, half)


def construct_clique_plus(params: LdsParams) -> TwoColoring:
    """Red = K_{t2-1} beside K_{k-1}, blue across; t2+k-2 vertices total.

    t2 is the smaller bipartition class and k the tree's order, one short
    of Burr's branch B.  Raises ValueError when t2 = 1 would leave the
    small clique empty, as for stars and the path on three vertices.
    """
    small = min(tree_class_sizes(params)) - 1
    if small < 1:
        raise ValueError(f"degenerate construction: empty small clique for {params.label()}")
    return _split_coloring(small + params.vertex_count - 1, small)


FAMILIES = {TWO_CLIQUES: construct_two_cliques, CLIQUE_PLUS: construct_clique_plus}


def analytic_no_mono_verdict(coloring: TwoColoring, params: LdsParams) -> bool:
    """True when coarse structure alone rules out a monochromatic copy.

    That holds when every component of each color is either smaller than
    the tree or bipartite with sides that cannot hold the tree's two
    classes, as for every builder output.  False claims nothing: a copy
    may or may not exist.
    """
    if not coloring.is_complete:
        raise IncompleteColoringError("certification requires a complete coloring")
    k = params.vertex_count
    class_a, class_b = tree_class_sizes(params)
    for color in (Color.RED, Color.BLUE):
        for comp in _color_structure(coloring, color):
            if comp.size < k:
                continue
            if not comp.bipartite:
                return False
            y = comp.side1.bit_count()
            x = comp.size - y
            if (class_a <= x and class_b <= y) or (class_a <= y and class_b <= x):
                return False
    return True


def certify(
    coloring: TwoColoring, params: LdsParams, construction: str | None = None
) -> CertReport:
    """Certified iff the detector finds no monochromatic copy.

    construction names a family of FAMILIES for builder outputs.  When the
    analytic precheck then rules a copy out, a detector witness raises,
    since that can only mean an implementation bug, and the method is
    detector+analytic; otherwise, or with no name, it is detector alone.
    A link too long for Python's recursion limit raises RecursionError,
    as in find_mono_lds.
    """
    if construction is not None and construction not in FAMILIES:
        raise ValueError(f"unknown construction {construction!r}")
    witness = find_mono_lds(coloring, params)
    method = METHOD_DETECTOR
    if construction is not None and analytic_no_mono_verdict(coloring, params):
        if witness is not None:
            raise CertificationConsistencyError(
                "analytic precheck rules out a copy but the detector found a witness"
            )
        method = METHOD_DETECTOR_ANALYTIC
    return CertReport(
        params=params,
        construction=construction,
        r=coloring.r,
        verdict="certified" if witness is None else "refuted",
        witness=witness,
        method=method,
    )
