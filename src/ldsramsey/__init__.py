"""Verification laboratory for Ramsey numbers of linked double stars.

S_c(n, m) is the tree built from two stars, K_{1,n} and K_{1,m}, whose
centers are joined by a path on c vertices (the centers included).  The
package evaluates the known closed-form bounds, builds and certifies the
extremal colorings behind them, detects monochromatic copies in arbitrary
two-colorings, and pins down exact Ramsey values at desk scale by
exhaustive search or exported SAT instances.
"""

from .coloring import (
    Color,
    ColoringFormatError,
    IncompleteColoringError,
    TwoColoring,
    all_pairs,
    pair_index,
    parse_coloring,
    serialize_coloring,
)
from .constructions import (
    CLIQUE_PLUS,
    TWO_CLIQUES,
    CertificationConsistencyError,
    CertReport,
    analytic_no_mono_verdict,
    certify,
    construct_clique_plus,
    construct_two_cliques,
)
from .detect import (
    DetectionConsistencyError,
    InstanceTooLargeError,
    brute_force_oracle,
    disjoint_leaf_selection,
    find_mono_lds,
    has_mono_copy_through_edge,
    verify_witness,
)
from .formulas import (
    BoundReport,
    LowerBound,
    bound_report,
    broom_ramsey,
    exact_value,
    lower_bound,
    lower_bound_branches,
    s2_ramsey,
)
from .lds import LdsParams, Witness, lds_edges, tree_class_sizes
from .search import (
    EmbeddingLimitExceeded,
    ExactValue,
    Indeterminate,
    NodeLimitReached,
    SearchConsistencyError,
    SearchOutcome,
    SearchStats,
    ValueInterval,
    check_export_cap,
    compute_ramsey,
    dimacs_satisfiable_by_sweep,
    export_dimacs,
    find_good_coloring,
    parse_dimacs,
    write_dimacs,
)

__version__ = "0.1.0"

__all__ = [
    "CLIQUE_PLUS",
    "TWO_CLIQUES",
    "BoundReport",
    "CertReport",
    "CertificationConsistencyError",
    "Color",
    "ColoringFormatError",
    "DetectionConsistencyError",
    "EmbeddingLimitExceeded",
    "ExactValue",
    "IncompleteColoringError",
    "Indeterminate",
    "InstanceTooLargeError",
    "LdsParams",
    "LowerBound",
    "NodeLimitReached",
    "SearchConsistencyError",
    "SearchOutcome",
    "SearchStats",
    "TwoColoring",
    "ValueInterval",
    "Witness",
    "all_pairs",
    "analytic_no_mono_verdict",
    "bound_report",
    "broom_ramsey",
    "brute_force_oracle",
    "certify",
    "check_export_cap",
    "compute_ramsey",
    "construct_clique_plus",
    "construct_two_cliques",
    "dimacs_satisfiable_by_sweep",
    "disjoint_leaf_selection",
    "exact_value",
    "export_dimacs",
    "find_good_coloring",
    "find_mono_lds",
    "has_mono_copy_through_edge",
    "lds_edges",
    "lower_bound",
    "lower_bound_branches",
    "pair_index",
    "parse_coloring",
    "parse_dimacs",
    "s2_ramsey",
    "serialize_coloring",
    "tree_class_sizes",
    "verify_witness",
    "write_dimacs",
]
