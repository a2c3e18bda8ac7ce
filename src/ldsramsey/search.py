"""Exhaustive search for good colorings and the Ramsey values they pin down.

A good coloring of K_r is one with no monochromatic copy of the target
tree in either color; the Ramsey number is the least r admitting none.
The engine assigns edge slots in canonical order, Red before Blue, and
prunes a branch as soon as the colored edges alone host a copy; since
every earlier partial state was copy-free, checking only copies through
the newest edge loses nothing.  Two symmetry reductions apply: slot 0 is
pinned Red (color-swap symmetry), and a partial coloring is abandoned
when an adjacent vertex transposition maps it to something
lexicographically smaller.  Both preserve existence, so an exhausted
search really does mean no good coloring, and a completed coloring is
still re-checked by the full detector before being reported.

The lex-leader comparison is incremental, after the row-wise sb_l of
Codish, Miller, Prosser and Stuckey (Constraints, 2019): for each
transposition the engine keeps the slot where the comparison with the
image is still open, so a node resumes each comparison where its parent
node left it instead of rescanning from slot 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .coloring import Color, TwoColoring, all_pairs, pair_index, serialize_coloring
from .detect import InstanceTooLargeError, find_mono_lds, has_mono_copy_through_edge
from .formulas import lower_bound
from .lds import LdsParams, lds_edges


class NodeLimitReached(RuntimeError):
    """The DFS node budget ran out before the search could conclude."""


class EmbeddingLimitExceeded(InstanceTooLargeError):
    """A CNF export would enumerate more embeddings than the cap allows."""


class SearchConsistencyError(RuntimeError):
    """The incremental checks and the full detector disagreed."""


@dataclass(frozen=True)
class SearchOptions:
    node_limit: int = 10**9
    use_lex_leader: bool = True
    use_color_pin: bool = True

    def __post_init__(self) -> None:
        if self.node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {self.node_limit}")


@dataclass
class SearchStats:
    """Mutable counters a caller may pass in to observe the engine."""

    nodes: int = 0
    lex_prunes: int = 0  # nodes a vertex transposition beat lexicographically
    copy_prunes: int = 0  # nodes whose newest edge completed a monochromatic copy
    limit_hit: bool = False


@dataclass(frozen=True)
class ExactValue:
    value: int


@dataclass(frozen=True)
class ValueInterval:
    """r is known to lie in [lo, hi].

    hi_certified distinguishes a genuinely exhausted upper endpoint from
    the scan-range sentinel r_hi + 1, which only means "not yet refuted".
    """

    lo: int
    hi: int
    hi_certified: bool = True


@dataclass(frozen=True)
class Indeterminate:
    reason: str


def _transposition_slot_maps(r: int) -> list[list[int]]:
    """Slot permutations induced by swapping vertices k and k+1, k >= 1."""
    pairs = all_pairs(r)
    maps = []
    for k in range(1, r - 1):
        def sw(v: int, a: int = k) -> int:
            if v == a:
                return a + 1
            if v == a + 1:
                return a
            return v

        maps.append([pair_index(sw(i), sw(j), r) for i, j in pairs])
    return maps


class _Engine:
    """One DFS over the edge slots of K_r for a fixed target."""

    __slots__ = (
        "params", "r", "opts", "coloring", "pairs", "lex_maps", "lex_ptr", "slots",
        "nodes", "lex_prunes", "copy_prunes",
    )

    def __init__(self, params: LdsParams, r: int, opts: SearchOptions):
        self.params = params
        self.r = r
        self.opts = opts
        self.coloring = TwoColoring(r)
        self.pairs = all_pairs(r)
        self.slots = self.coloring._slots  # read by _lex_ok, written only via set_edge
        self.lex_maps = _transposition_slot_maps(r) if opts.use_lex_leader else []
        self.lex_ptr: list[list[int]] = [[]] * (len(self.pairs) + 1)
        self.lex_ptr[0] = [0] * len(self.lex_maps)
        self.nodes = 0
        self.lex_prunes = 0
        self.copy_prunes = 0

    def _lex_ok(self, t: int) -> bool:
        """Extend each transposition comparison over slot t; False prunes.

        lex_ptr[t][k] is the first slot whose comparison with its image
        under lex_maps[k] is still open once slots 0..t-1 are set (every
        slot before it equals its image), or -1 once the image is known to
        be larger.  A comparison stops at the first slot whose image is
        still unassigned, so a False here means every completion is beaten
        by its image and the branch dies.  Depth t reads only lex_ptr[t]
        and writes only lex_ptr[t + 1], so backtracking needs no undo.
        """
        slots = self.slots
        nxt = []
        for tau, p in zip(self.lex_maps, self.lex_ptr[t]):
            while 0 <= p <= t:
                q = tau[p]
                if q > t:
                    break
                a = slots[p]
                b = slots[q]
                if a == b:
                    p += 1
                elif a < b:
                    p = -1
                else:
                    return False
            nxt.append(p)
        self.lex_ptr[t + 1] = nxt
        return True

    def _choices(self, depth: int) -> tuple[int, ...]:
        if depth == 0 and self.opts.use_color_pin:
            return (1,)
        return (1, 2)

    def _step(self, depth: int, val: int) -> bool:
        """Assign one slot and run the incremental checks; True if viable."""
        self.nodes += 1
        if self.nodes > self.opts.node_limit:
            raise NodeLimitReached(
                f"node limit {self.opts.node_limit} hit at depth {depth} (r={self.r})"
            )
        i, j = self.pairs[depth]
        self.coloring.set_edge(i, j, val)
        if self.lex_maps and not self._lex_ok(depth):
            self.lex_prunes += 1
            return False
        if has_mono_copy_through_edge(self.coloring, self.params, i, j, Color(val)):
            self.copy_prunes += 1
            return False
        return True

    def _unstep(self, depth: int) -> None:
        i, j = self.pairs[depth]
        self.coloring.set_edge(i, j, 0)

    def search(self, depth: int) -> TwoColoring | None:
        if depth == len(self.pairs):
            if find_mono_lds(self.coloring, self.params) is not None:
                raise SearchConsistencyError(
                    "incremental checks admitted a completed coloring with a copy"
                )
            return self.coloring.clone()
        for val in self._choices(depth):
            viable = self._step(depth, val)
            if viable:
                found = self.search(depth + 1)
                if found is not None:
                    self._unstep(depth)
                    return found
            self._unstep(depth)
        return None


def find_good_coloring(
    params: LdsParams,
    r: int,
    opts: SearchOptions | None = None,
    stats: SearchStats | None = None,
) -> TwoColoring | None:
    """A complete coloring of K_r with no monochromatic copy, or None.

    The None return is a proof of nonexistence: the DFS ran to exhaustion.
    Running out of node budget raises NodeLimitReached instead, so a
    truncated search can never masquerade as a completed one.
    """
    if r < 1:
        raise ValueError(f"vertex count must be positive, got {r}")
    if opts is None:
        opts = SearchOptions()
    if params.vertex_count == 1:
        # a one-vertex target sits in every K_r with no edge to witness it
        return None
    engine = _Engine(params, r, opts)
    try:
        return engine.search(0)
    except NodeLimitReached:
        if stats is not None:
            stats.limit_hit = True
        raise
    finally:
        if stats is not None:
            stats.nodes += engine.nodes
            stats.lex_prunes += engine.lex_prunes
            stats.copy_prunes += engine.copy_prunes


def default_scan_floor(params: LdsParams) -> int:
    """Where a Ramsey scan starts when the caller gives no range."""
    if params.c % 2 == 1 and params.c >= 3:
        return max(2, lower_bound(params).value)
    return 2


@dataclass(frozen=True)
class SearchOutcome:
    params: LdsParams
    result: ExactValue | ValueInterval | Indeterminate
    good_coloring: TwoColoring | None
    nodes_explored: int
    wall_time: float
    limit_hit: bool = False

    def to_json_dict(self, include_timing: bool = True) -> dict:
        res: dict[str, object]
        if isinstance(self.result, ExactValue):
            res = {"kind": "exact", "value": self.result.value}
        elif isinstance(self.result, ValueInterval):
            res = {
                "kind": "interval",
                "lo": self.result.lo,
                "hi": self.result.hi,
                "hi_certified": self.result.hi_certified,
            }
        else:
            res = {"kind": "indeterminate", "reason": self.result.reason}
        doc: dict[str, object] = {
            "params": self.params.to_json_dict(),
            "result": res,
            "good_coloring": (
                serialize_coloring(self.good_coloring) if self.good_coloring is not None else None
            ),
            "nodes_explored": self.nodes_explored,
            "limit_hit": self.limit_hit,
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
        return doc


def compute_ramsey(
    params: LdsParams,
    r_lo: int | None = None,
    r_hi: int | None = None,
    opts: SearchOptions | None = None,
    stats: SearchStats | None = None,
) -> SearchOutcome:
    """Scan [r_lo, r_hi] for the least r with no good coloring.

    Exact(v) is reported only with both certificates in hand: a good
    coloring on v-1 vertices and an exhausted search at v (v = 1, the
    one-vertex target, needs no coloring certificate).  If the first
    probe already exhausts, the scan walks downward until a good coloring
    certifies the floor.  A scan that runs out of range or budget yields
    an interval over what was actually certified, or Indeterminate when
    nothing was.  Every probe counts into stats when one is given.
    """
    if opts is None:
        opts = SearchOptions()
    if r_lo is None:
        r_lo = default_scan_floor(params)
    if r_hi is None:
        r_hi = r_lo + 10
    if not 1 <= r_lo <= r_hi:
        raise ValueError(f"need 1 <= r_lo <= r_hi, got [{r_lo}, {r_hi}]")
    if stats is None:
        stats = SearchStats()
    nodes_before = stats.nodes
    limit_hit = False
    start = time.perf_counter()
    good_at: int | None = None
    exhausted_at: int | None = None
    best_good: TwoColoring | None = None
    try:
        v = r_lo
        while v <= r_hi:
            found = find_good_coloring(params, v, opts, stats)
            if found is None:
                exhausted_at = v
                break
            good_at = v
            best_good = found
            v += 1
        if exhausted_at is not None and good_at is None:
            w = exhausted_at - 1
            while w >= 1:
                found = find_good_coloring(params, w, opts, stats)
                if found is not None:
                    good_at = w
                    best_good = found
                    break
                exhausted_at = w
                w -= 1
    except NodeLimitReached:
        limit_hit = True
    wall = time.perf_counter() - start

    result: ExactValue | ValueInterval | Indeterminate
    if exhausted_at is not None and (good_at == exhausted_at - 1 or exhausted_at == 1):
        result = ExactValue(exhausted_at)
    elif good_at is not None:
        if exhausted_at is not None:
            result = ValueInterval(good_at + 1, exhausted_at)
        else:
            result = ValueInterval(good_at + 1, r_hi + 1, hi_certified=False)
    elif exhausted_at is not None:
        # upper side certified, lower side only the trivial size bound
        result = ValueInterval(params.vertex_count, exhausted_at)
    else:
        result = Indeterminate(
            f"node limit {opts.node_limit} reached before any probe of [{r_lo}, {r_hi}] concluded"
        )
    return SearchOutcome(
        params=params,
        result=result,
        good_coloring=best_good,
        nodes_explored=stats.nodes - nodes_before,
        wall_time=wall,
        limit_hit=limit_hit,
    )


def export_dimacs(params: LdsParams, r: int, cap: int = 10**7) -> str:
    """DIMACS CNF satisfiable iff a good coloring of K_r exists.

    Variable k is canonical pair k-1, true meaning Red.  Each distinct
    monochromatic-copy edge set contributes a not-all-red and a
    not-all-blue clause; edge sets are deduplicated across embeddings, so
    target automorphisms cost nothing.
    """
    if r < 1:
        raise ValueError(f"vertex count must be positive, got {r}")
    k = params.vertex_count
    n_vars = r * (r - 1) // 2
    lines = [
        "c ramsey avoidance instance for a linked double star",
        f"c params c={params.c} n={params.n} m={params.m} target={params.label()}",
        f"c r={r} vars={n_vars} true=red",
    ]
    if r < k:
        lines.append(f"c no {k}-vertex embedding fits: trivially satisfiable")
        lines.append("c embeddings=0 edge-sets=0 clauses=0")
        lines.append(f"p cnf {n_vars} 0")
        return "\n".join(lines) + "\n"
    embeddings = 1
    for t in range(r, r - k, -1):
        embeddings *= t
    if embeddings > cap:
        raise EmbeddingLimitExceeded(
            f"{embeddings} injective embeddings of {k} vertices into K_{r} exceed the cap {cap}"
        )
    edges = lds_edges(params)
    edge_sets = {
        tuple(sorted(pair_index(image[a], image[b], r) for a, b in edges))
        for image in permutations(range(r), k)
    }
    ordered = sorted(edge_sets)
    lines.append(
        f"c embeddings={embeddings} edge-sets={len(ordered)} clauses={2 * len(ordered)}"
    )
    lines.append(f"p cnf {n_vars} {2 * len(ordered)}")
    for s in ordered:
        lines.append(" ".join([*(str(-(e + 1)) for e in s), "0"]))
        lines.append(" ".join([*(str(e + 1) for e in s), "0"]))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, int]]]:
    """DIMACS text to (variable count, clauses as (positive, negative) masks)."""
    n_vars: int | None = None
    clauses: list[tuple[int, int]] = []
    pending_pos = 0
    pending_neg = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {raw!r}")
            n_vars = int(parts[2])
            continue
        if n_vars is None:
            raise ValueError("clause data before the problem line")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append((pending_pos, pending_neg))
                pending_pos = pending_neg = 0
            elif lit > 0:
                pending_pos |= 1 << (lit - 1)
            else:
                pending_neg |= 1 << (-lit - 1)
    if pending_pos or pending_neg:
        raise ValueError("unterminated final clause")
    if n_vars is None:
        raise ValueError("missing problem line")
    return n_vars, clauses


def dimacs_satisfiable_by_sweep(text: str, max_vars: int = 20) -> bool:
    """Decide satisfiability by enumerating every assignment.

    Strictly a cross-check for tiny instances; raises rather than attempt
    anything past max_vars variables.
    """
    n_vars, clauses = parse_dimacs(text)
    if n_vars > max_vars:
        raise InstanceTooLargeError(f"{n_vars} variables exceed the sweep bound {max_vars}")
    full = (1 << n_vars) - 1
    for assignment in range(1 << n_vars):
        inverted = full & ~assignment
        if all(assignment & pos or inverted & neg for pos, neg in clauses):
            return True
    return False
