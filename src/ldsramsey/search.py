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

The lex-leader comparison is the row-wise sb_l of Codish, Miller,
Prosser and Stuckey (Constraints, 2019), restricted to the slot pairs
(p, tau(p)), p < tau(p), that a transposition tau moves: only those can
decide it.  They come in order, so each slot completes at most two of
them, and a node compares just those, for the transpositions still
undecided; one whose image is known to be larger drops out for the
rest of the branch.  See ``_Engine._lex_ok``.

The DFS is one loop over the depths.  Each depth writes its slot in
place, Blue over Red, and the slot's own value says which colors are
left to try there, so the loop keeps no other state; a depth clears its
slot once when it steps back.  A node costs one slot write and a depth
one more, and the node budget is the loop's only stop.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from math import comb, perm
from operator import getitem
from typing import TextIO

from .coloring import Color, TwoColoring, all_pairs, bits_of, pair_index, serialize_coloring
from .detect import InstanceTooLargeError, find_mono_lds, has_mono_copy_through_edge
from .formulas import lower_bound
from .lds import LdsParams

_COLORS = tuple(Color)  # the branching order, Red first; bound once like coloring._RED
_BLOCK = 4096  # edge sets per write_dimacs write, two clause lines each
_EXPORT_CAP = 10**7  # placements a DIMACS export may make, see check_export_cap
_SWEEP_MAX_VARS = 21  # variables dimacs_satisfiable_by_sweep will take: K_7
_NODE_LIMIT = 10**9  # DFS nodes per probe when the caller names no budget


class NodeLimitReached(RuntimeError):
    """The DFS node budget ran out before the search could conclude."""


class EmbeddingLimitExceeded(InstanceTooLargeError):
    """A CNF export would place more copies than the cap allows."""


class SearchConsistencyError(RuntimeError):
    """The incremental checks and the full detector disagreed."""


@dataclass
class SearchStats:
    """Mutable counters a caller may pass in to observe the engine."""

    nodes: int = 0
    lex_prunes: int = 0  # nodes a vertex transposition beat lexicographically
    copy_prunes: int = 0  # nodes whose newest edge completed a monochromatic copy


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


class _Engine:
    """One DFS over the edge slots of K_r for a fixed target."""

    __slots__ = ("params", "r", "coloring", "pairs", "lex_waits", "lex_open", "slots")

    def __init__(self, params: LdsParams, r: int):
        self.params = params
        self.r = r
        self.coloring = TwoColoring(r)
        self.pairs = all_pairs(r)
        self.slots = self.coloring._slots  # read by _lex_ok, written only via set_edge
        waits: list[list[tuple[int, int]]] = [[] for _ in self.pairs]
        for k in range(1, r - 1):
            # the moved pairs p < tau(p) of the swap of k and k+1, in order of p
            bit = 1 << (k - 1)
            for i in range(k):
                waits[pair_index(i, k + 1, r)].append((bit, pair_index(i, k, r)))
            for j in range(k + 2, r):
                waits[pair_index(k + 1, j, r)].append((bit, pair_index(k, j, r)))
        self.lex_waits = [tuple(w) for w in waits]
        self.lex_open = [0] * (len(self.pairs) + 1)
        self.lex_open[0] = (1 << max(r - 2, 0)) - 1

    def _lex_ok(self, t: int) -> bool:
        """Extend each open transposition comparison over slot t; False prunes.

        Transposition k compares the slots with their images under tau,
        the slot map of swapping vertices k and k+1, slot by slot.  Only its
        moved pairs p < tau(p) can decide that comparison: a fixed slot
        equals its image, and a first difference at p > tau(p) would
        already have shown at tau(p).  For the swap of k and k+1 those
        pairs are {i,k} -> {i,k+1} for i < k, then {k,j} -> {k+1,j} for
        j > k+1, so taken in order of p they also come in order of
        tau(p): the pair that slot t = tau(p) completes is the one the
        comparison needs next once the pairs before it compared equal.

        lex_waits[t] lists (bit of k, p) for each pair that slot t
        completes, at most two, and lex_open[t] holds the bits of the
        transpositions still undecided once slots 0..t-1 are set.  One
        whose image is known to be larger leaves the mask and is never
        compared again; a smaller image means every completion is beaten
        and the branch dies.  Depth t reads only lex_open[t] and writes
        only lex_open[t + 1], so backtracking needs no undo.
        """
        slots = self.slots
        image = slots[t]  # the image's value at p for each p waiting on t
        still = self.lex_open[t]
        for bit, p in self.lex_waits[t]:
            if still & bit:
                own = slots[p]
                if own > image:
                    return False
                if own < image:
                    still ^= bit
        self.lex_open[t + 1] = still
        return True

    def search(self, node_limit: int, stats: SearchStats) -> TwoColoring | None:
        """Try each color at each slot in turn, one node per try: count it
        into stats, write the slot, lex check, copy check, step down.  A
        slot with no color left is cleared and the loop steps back up.  A
        good completion, or None once slot 0 has no color left."""
        coloring, params, pairs, slots = self.coloring, self.params, self.pairs, self.slots
        last = len(pairs)
        stop = stats.nodes + node_limit
        # the colors still to try at a depth, by its slot's value; slot 0 is pinned Red
        todo = [(_COLORS[:1], (), ())] + [(_COLORS, _COLORS[1:], ())] * (last - 1)
        depth = 0
        while depth >= 0:
            if depth == last:
                if find_mono_lds(coloring, params) is not None:
                    raise SearchConsistencyError(
                        "incremental checks admitted a completed coloring with a copy"
                    )
                return coloring.clone()
            i, j = pairs[depth]
            for color in todo[depth][slots[depth]]:
                stats.nodes += 1
                if stats.nodes > stop:
                    raise NodeLimitReached(
                        f"node limit {node_limit} hit at depth {depth} (r={self.r})"
                    )
                coloring.set_edge(i, j, color)
                if not self._lex_ok(depth):
                    stats.lex_prunes += 1
                elif has_mono_copy_through_edge(coloring, params, i, j, color):
                    stats.copy_prunes += 1
                else:
                    depth += 1
                    break
            else:
                coloring.set_edge(i, j, 0)
                depth -= 1
        return None


def find_good_coloring(
    params: LdsParams,
    r: int,
    node_limit: int | None = None,
    stats: SearchStats | None = None,
) -> TwoColoring | None:
    """A complete coloring of K_r with no monochromatic copy, or None.

    The None return is a proof of nonexistence: the DFS ran to exhaustion.
    Running out of node budget raises NodeLimitReached instead, so a
    truncated search can never masquerade as a completed one.  The budget
    is node_limit DFS nodes, 10**9 when None; a bool, a non-int or a value
    below 1 raises ValueError.  The DFS counts nodes and prunes into stats
    as it goes, so a stopped probe's count is there too.
    """
    if r < 1:
        raise ValueError(f"vertex count must be positive, got {r}")
    if node_limit is None:
        node_limit = _NODE_LIMIT
    elif type(node_limit) is not int:
        raise ValueError(f"node_limit must be an int, got {node_limit!r}")
    elif node_limit < 1:
        raise ValueError(f"node_limit must be >= 1, got {node_limit}")
    if params.vertex_count == 1:
        # a one-vertex target sits in every K_r with no edge to witness it
        return None
    return _Engine(params, r).search(node_limit, SearchStats() if stats is None else stats)


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
    node_limit: int | None = None,
    stats: SearchStats | None = None,
) -> SearchOutcome:
    """Scan [r_lo, r_hi] for the least r with no good coloring.

    The scan probes r_lo, then steps up after a good coloring and down
    after an exhaustion, within [1, r_hi].  Each step leaves the one kind
    of certificate already held, so the first probe that yields the other
    kind ends the scan with a good coloring at v-1 and an exhausted search
    at v: Exact(v) (v = 1, the one-vertex target, needs no coloring).  A
    scan that runs out of range or budget yields an interval over what
    was certified, or Indeterminate when nothing was.  node_limit is each
    probe's budget, as in find_good_coloring.  Every probe's DFS counts
    into stats as it goes, when one is given.
    """
    if r_lo is None:
        r_lo = lower_bound(params).value
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
        while (good_at is None or exhausted_at is None) and 1 <= v <= r_hi:
            found = find_good_coloring(params, v, node_limit, stats)
            if found is None:
                exhausted_at = v
                v -= 1
            else:
                good_at = v
                best_good = found
                v += 1
    except NodeLimitReached:
        limit_hit = True
    wall = time.perf_counter() - start

    result: ExactValue | ValueInterval | Indeterminate
    if exhausted_at is not None and (good_at is not None or exhausted_at == 1):
        result = ExactValue(exhausted_at)
    elif good_at is not None:
        result = ValueInterval(good_at + 1, r_hi + 1, hi_certified=False)
    elif exhausted_at is not None:
        # upper side certified, lower side only the trivial size bound
        result = ValueInterval(params.vertex_count, exhausted_at)
    else:
        budget = _NODE_LIMIT if node_limit is None else node_limit
        result = Indeterminate(
            f"node limit {budget} reached before any probe of [{r_lo}, {r_hi}] concluded"
        )
    return SearchOutcome(
        params=params,
        result=result,
        good_coloring=best_good,
        nodes_explored=stats.nodes - nodes_before,
        wall_time=wall,
        limit_hit=limit_hit,
    )


def _copy_edge_sets(params: LdsParams, r: int) -> list[int]:
    """Edge sets of every copy of the target in K_r, each as one int mask,
    distinct and in descending order.

    Slot e of the N = r(r-1)/2 slots is bit N-1-e, so slot 0 is the
    highest bit.  A copy is an ordered link path plus n leaves on its
    first vertex and m on its last; its edges are distinct, so the sum of
    their bits is its mask.  A mask repeats whenever one tree has two
    placements: reversed paths (n = m), the leaf sides of one center
    (c = 1), but also any ray of a star S_2(n,0) as its link and either
    end of a path S_c(1,0) as its leaf; so the repeats, adjacent after
    the sort, are dropped for every shape.  Generation order leaves long
    runs, which the sort merges cheaply.
    """
    c, n, m = params.c, params.n, params.m
    top = r * (r - 1) // 2 - 1
    bit = [[1 << (top - pair_index(a, b, r)) if a != b else 0 for b in range(r)] for a in range(r)]
    masks: list[int] = []
    for path in permutations(range(r), c):
        link = sum([bit[a][b] for a, b in zip(path, path[1:])])
        first, last = bit[path[0]], bit[path[-1]]
        rest = [v for v in range(r) if v not in path]
        for left in combinations(rest, n):
            head = link + sum(map(first.__getitem__, left))
            tail = [last[v] for v in rest if v not in left]
            masks.extend(map(head.__add__, map(sum, combinations(tail, m))))
    masks.sort(reverse=True)
    unique = [a for a, b in zip(masks, islice(masks, 1, None)) if a != b]
    unique += masks[-1:]
    return unique


def _literal_tables(n_vars: int) -> list[list[str]]:
    """Per byte of a mask's big-endian bytes, the negative literals of
    each byte value, ``"-k "`` in ascending k.

    The mask's n_vars bits are padded up to whole bytes at the top, so
    bit q of byte j is slot 8j + 7 - q - pad.  Each higher bit is a
    smaller slot, so its literal goes in front: one concatenation per
    entry, 255 per byte.
    """
    n_bytes = (n_vars + 7) // 8
    pad = 8 * n_bytes - n_vars
    tables = []
    for j in range(n_bytes):
        table = [""]
        for slot in range(8 * j + 7 - pad, 8 * j - 1 - pad, -1):
            lit = f"-{slot + 1} " if slot >= 0 else ""
            table += [lit + rest for rest in table]
        tables.append(table)
    return tables


def check_export_cap(params: LdsParams, r: int) -> None:
    """Raise EmbeddingLimitExceeded when exporting K_r would make more than
    10^7 placements, r!/(r-c)! * C(r-c, n) * C(r-c-n, m): the work of
    the build and an upper bound on the edge-set count.  A host too small
    for the target makes none; a vertex count below 1 raises ValueError."""
    if r < 1:
        raise ValueError(f"vertex count must be positive, got {r}")
    c, n, m = params.c, params.n, params.m
    if r < params.vertex_count:
        return
    placements = perm(r, c) * comb(r - c, n) * comb(r - c - n, m)
    if placements > _EXPORT_CAP:
        raise EmbeddingLimitExceeded(
            f"{placements} placements of a {c}-vertex link and {n}+{m} leaves "
            f"in K_{r} exceed the cap {_EXPORT_CAP}"
        )


def write_dimacs(params: LdsParams, r: int, out: TextIO) -> tuple[int, int]:
    """Write the DIMACS CNF of ``export_dimacs`` to the text handle ``out``;
    returns (variables, clauses).

    The cap is checked before anything is written, and the clauses go
    out in blocks of a few thousand lines, so the text never exists
    whole.  Each edge set is an int mask with slot e at bit N-1-e (see
    ``_copy_edge_sets``), and every set has k-1 edges.  For two sets of
    equal size, the first slot where their sorted tuples differ is the
    smallest slot of their symmetric difference, so the highest bit in
    which the masks differ; it lies in the lexicographically smaller
    tuple, whose mask is therefore the larger int.  Descending mask order
    is thus ascending tuple order.  A not-all-red clause is read off the
    mask's bytes through per-byte literal tables, and its not-all-blue
    partner is the same text without the minus signs.  The header's
    ``embeddings=`` is the injective-map count r!/(r-k)!, computed rather
    than enumerated.
    """
    check_export_cap(params, r)
    k = params.vertex_count
    n_vars = r * (r - 1) // 2
    header = (
        "c ramsey avoidance instance for a linked double star\n"
        f"c params c={params.c} n={params.n} m={params.m} target={params.label()}\n"
        f"c r={r} vars={n_vars} true=red\n"
    )
    if r < k:
        out.write(
            f"{header}c no {k}-vertex embedding fits: trivially satisfiable\n"
            f"c embeddings=0 edge-sets=0 clauses=0\np cnf {n_vars} 0\n"
        )
        return n_vars, 0
    ordered = _copy_edge_sets(params, r)
    n_clauses = 2 * len(ordered)
    out.write(
        f"{header}c embeddings={perm(r, k)} edge-sets={len(ordered)} clauses={n_clauses}\n"
        f"p cnf {n_vars} {n_clauses}\n"
    )
    tables = _literal_tables(n_vars)
    n_bytes = len(tables)
    join = "".join
    for start in range(0, len(ordered), _BLOCK):
        lines = []
        for mask in ordered[start : start + _BLOCK]:
            neg = join(map(getitem, tables, mask.to_bytes(n_bytes, "big"))) + "0\n"
            lines.append(neg)
            lines.append(neg.replace("-", ""))
        out.write(join(lines))
    return n_vars, n_clauses


def export_dimacs(params: LdsParams, r: int) -> str:
    """DIMACS CNF satisfiable iff a good coloring of K_r exists.

    Variable k is canonical pair k-1, true meaning Red.  Each distinct
    edge set of a copy of the target in K_r contributes a not-all-red and
    a not-all-blue clause, the sets in ascending order of their sorted
    slot tuples.  The text is ``write_dimacs``'s, collected in memory;
    see there for the set order, ``_copy_edge_sets`` for how the sets are
    built and ``check_export_cap`` for the cap on their number.
    """
    buf = io.StringIO()
    write_dimacs(params, r, buf)
    return buf.getvalue()


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, int]]]:
    """DIMACS text to (variable count, clauses as (positive, negative) masks).

    The one problem line must come first with nonnegative counts, every
    literal must name a declared variable, and the clause count must match.
    """
    n_vars: int | None = None
    n_clauses = 0
    clauses: list[tuple[int, int]] = []
    pending_pos = 0
    pending_neg = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if n_vars is not None or len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed or repeated problem line: {raw!r}")
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            if n_vars < 0 or n_clauses < 0:
                raise ValueError(f"negative count in problem line: {raw!r}")
            continue
        if n_vars is None:
            raise ValueError("clause data before the problem line")
        for tok in line.split():
            lit = int(tok)
            if not -n_vars <= lit <= n_vars:
                raise ValueError(f"literal {lit} outside the {n_vars} declared variables")
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
    if len(clauses) != n_clauses:
        raise ValueError(f"problem line declares {n_clauses} clauses, found {len(clauses)}")
    return n_vars, clauses


def dimacs_satisfiable_by_sweep(text: str) -> bool:
    """Decide satisfiability on truth tables of all 2^n assignments at once.

    A literal's table has bit a set when assignment a (variable k+1 takes
    bit k of a) makes it true; ORed over each clause and ANDed over the
    clauses, the tables leave the models.  Strictly a cross-check for
    tiny instances; raises rather than attempt anything past 21
    variables (K_7).
    """
    n_vars, clauses = parse_dimacs(text)
    if n_vars > _SWEEP_MAX_VARS:
        raise InstanceTooLargeError(
            f"{n_vars} variables exceed the sweep bound {_SWEEP_MAX_VARS}"
        )
    full = table = (1 << (1 << n_vars)) - 1
    tables = [0] * (2 * n_vars)  # literal k+1 at index k, literal -(k+1) at n_vars + k
    for k in reversed(range(n_vars)):
        table ^= table >> (1 << k)  # the upper half of each run of ones: bit k set
        tables[k], tables[n_vars + k] = table, full ^ table
    live = full
    for pos, neg in clauses:
        sat = 0
        for k in bits_of(pos | neg << n_vars):
            sat |= tables[k]
        live &= sat
        if not live:
            return False
    return True
