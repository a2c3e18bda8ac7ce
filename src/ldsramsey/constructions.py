"""Extremal colorings witnessing the lower bounds, and their certification.

The two families realize the two branches of Burr's bound for every link
length, reading their block sizes off the tree's bipartition classes.
Both make the red graph a disjoint union of cliques and the blue graph
complete bipartite, so certification can be argued two ways: by the
exhaustive detector, and analytically from component sizes and bipartition
fit.  certify() runs both on builder outputs and insists they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Color, IncompleteColoringError, TwoColoring, bits_of
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


def analytic_no_mono_verdict(coloring: TwoColoring, params: LdsParams) -> bool | None:
    """Certificate from coarse structure alone, when one is available.

    True: no monochromatic copy can exist (every component of each color is
    too small, or is bipartite with sides that cannot hold the tree's two
    classes).  False: a copy is guaranteed (a big enough clique component,
    or a complete bipartite component whose sides fit).  None: the coarse
    view does not decide.
    """
    if not coloring.is_complete:
        raise IncompleteColoringError("certification requires a complete coloring")
    k = params.vertex_count
    class_a, class_b = tree_class_sizes(params)
    for color in (Color.RED, Color.BLUE):
        adj = coloring.adjacency(color)
        for comp in _color_structure(coloring, color):
            if comp.size < k:
                continue
            inside_edges = sum((adj[v] & comp.mask).bit_count() for v in bits_of(comp.mask)) // 2
            if comp.bipartite:
                x, y = comp.side_sizes
                fits = (class_a <= x and class_b <= y) or (class_a <= y and class_b <= x)
                if not fits:
                    continue
                if inside_edges == x * y:
                    return False  # complete bipartite and the classes fit
                return None
            if inside_edges == comp.size * (comp.size - 1) // 2:
                return False  # a clique at least as large as the target
            return None
    return True


def certify(
    coloring: TwoColoring, params: LdsParams, construction: str | None = None
) -> CertReport:
    """Certified iff the detector finds no monochromatic copy.

    For builder outputs, pass the family name: the analytic precheck then
    runs as well and any disagreement with the detector raises, since that
    can only mean an implementation bug.
    """
    if construction not in (None, TWO_CLIQUES, CLIQUE_PLUS):
        raise ValueError(f"unknown construction {construction!r}")
    witness = find_mono_lds(coloring, params)
    method = METHOD_DETECTOR
    if construction is not None:
        analytic = analytic_no_mono_verdict(coloring, params)
        if analytic is not None:
            if analytic != (witness is None):
                raise CertificationConsistencyError(
                    f"analytic precheck says no-copy={analytic} but detector "
                    f"{'found a witness' if witness else 'found none'}"
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
