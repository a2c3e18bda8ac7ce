"""Monochromatic-copy detection for the linked double star.

The detector is exhaustive: a ``None`` answer is a proof that no copy of the
target exists in the allowed colors.  All pruning below is therefore of the
sound kind only (component sizes, bipartition fit, depth-bounded reach
masks, degree and pool bounds, and twin symmetry); the exactness of the
final leaf-selection test is what lets a completed path decide membership
outright.  The reach masks hold the vertices within d steps of a_c for
d < c only, as a link of c vertices needs no longer distance.

Twins are vertices with equal open neighbourhoods (adj[u] == adj[v], never
adjacent) or equal closed ones (adj[u] | 1 << u == adj[v] | 1 << v, always
adjacent, such as two vertices of a clique); swapping two twins is an
automorphism of the color class.  The full detector skips twins at every
level: among the start vertices a_1, among the a_c tried for one a_1, and
among the candidates of each step of the path walk.  Each skip keeps its
answer: a skipped vertex could only have found a copy if its earlier twin
had, and that copy would already have been returned, so the first witness
in scan order is the one found without the skip.

A deliberately naive permutation oracle is kept alongside as an independent
cross-check at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coloring import Color, IncompleteColoringError, TwoColoring, bits_of, require_color
from .lds import LdsParams, Witness, lds_edges, tree_class_sizes


class InstanceTooLargeError(ValueError):
    """Raised when the brute-force oracle guard rejects an instance."""


class DetectionConsistencyError(RuntimeError):
    """The detector's counting filters and its own output disagreed."""


def disjoint_leaf_selection(
    pool_a, pool_b, n: int, m: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Pick n leaves from pool_a and m from pool_b, disjointly.

    Succeeds exactly when |A| >= n, |B| >= m and |A u B| >= n+m.  The
    choice is deterministic: the n-side fills from A\\B first, the m-side
    from B\\A first, and the shared part is split in ascending order with
    the n-side taking the smaller vertices.
    """
    if n < 0 or m < 0:
        raise ValueError("leaf counts must be nonnegative")
    a = set(pool_a)
    b = set(pool_b)
    if len(a) < n or len(b) < m or len(a | b) < n + m:
        return None
    shared = sorted(a & b)
    take_n = sorted(a - b)[:n]
    need = n - len(take_n)
    take_n += shared[:need]
    take_m = sorted(b - a)[:m]
    take_m += shared[need:][: m - len(take_m)]
    return tuple(sorted(take_n)), tuple(sorted(take_m))


@dataclass(frozen=True)
class _CompInfo:
    size: int
    bipartite: bool
    mask: int
    side1: int


def _nbrs_of(adj: list[int], mask: int) -> int:
    """The OR of adj over the vertices of mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj[low.bit_length() - 1]
    return out


def _color_structure(coloring: TwoColoring, color: Color) -> list[_CompInfo]:
    """Connected components of one color class, with 2-coloring sides, in
    the order of their lowest vertex.

    Each component is flooded breadth first from its lowest vertex, one
    frontier mask at a time: the next frontier is the OR of adj over the
    frontier, minus the component so far, and its vertices take the side
    of its layer's parity.  near[s] collects the neighbours of side s, so
    the component is bipartite exactly when no side meets its own near.
    side1 masks the vertices of odd layers, the lowest vertex's other side
    when the component is bipartite.
    """
    adj = coloring.adjacency(color)
    comps: list[_CompInfo] = []
    unassigned = (1 << coloring.r) - 1
    while unassigned:
        frontier = unassigned & -unassigned
        comp = frontier
        sides = [frontier, 0]
        near = [0, 0]
        parity = 0
        while frontier:
            nxt = _nbrs_of(adj, frontier)
            near[parity] |= nxt
            parity ^= 1
            frontier = nxt & ~comp
            comp |= frontier
            sides[parity] |= frontier
        unassigned &= ~comp
        bipartite = not (near[0] & sides[0] or near[1] & sides[1])
        comps.append(_CompInfo(comp.bit_count(), bipartite, comp, sides[1]))
    return comps


def _reach_within(adj: list[int], src: int, depth: int) -> list[int]:
    """within[d] is the mask of vertices at distance at most d from src,
    for d = 0..depth; the walk stops there, however far the class goes."""
    reach = 1 << src
    within = [reach]
    frontier = reach
    for _ in range(depth):
        frontier = _nbrs_of(adj, frontier) & ~reach
        reach |= frontier
        within.append(reach)
    return within


def find_mono_lds(
    coloring: TwoColoring, params: LdsParams, restrict: Color | None = None
) -> Witness | None:
    """First monochromatic copy in canonical scan order, or None.

    Scan order is fixed for reproducibility: red before blue, start pairs
    (a_1, a_c) ascending, path extension in ascending vertex order.  The
    absence answer is exhaustive.  The path walk recurses once per link
    vertex, so a link longer than Python's recursion limit allows raises
    a bare RecursionError (the CLI reports it with exit 2).
    """
    colors = _scan_colors(restrict)
    if not coloring.is_complete:
        raise IncompleteColoringError("detection requires a complete coloring")
    if coloring.r < params.vertex_count:
        return None
    for color in colors:
        witness = _find_in_color(coloring, params, color)
        if witness is not None:
            if not verify_witness(coloring, params, witness):
                raise DetectionConsistencyError(
                    f"detector returned a witness that fails verification: {witness}"
                )
            return witness
    return None


def _scan_colors(restrict: Color | None) -> tuple[Color, ...]:
    """Both colors, red first, or only ``restrict``, which must be a Color."""
    if restrict is None:
        return (Color.RED, Color.BLUE)
    return (require_color(restrict),)


def _find_in_color(coloring: TwoColoring, params: LdsParams, color: Color) -> Witness | None:
    """First copy in one color, start pairs (a_1, a_c) ascending, or None.

    An a_1 is skipped when an earlier a_1' is its twin.  Their swap s maps
    every pair (a_1, x) onto (a_1', s(x)), and a_1' answered None for all
    of those.  An a_c is skipped when an earlier a_c' for the same a_1 is
    its twin, since their swap fixes a_1.  Every filter below (degrees,
    component, bipartite side and side sizes, avail, the reach masks) reads
    the same on both sides of a swap, so only pairs that would answer None
    are skipped.
    """
    r = coloring.r
    adj = coloring.adjacency(color)
    c, n, m = params.c, params.n, params.m
    k = params.vertex_count
    if c == 1:
        need = n + m
        for center in range(r):
            if adj[center].bit_count() >= need:
                pool = bits_of(adj[center])
                sel = disjoint_leaf_selection(pool, pool, n, m)
                if sel is None:
                    raise DetectionConsistencyError(
                        f"no {n}+{m} leaves among the {len(pool)} neighbours of {center}"
                    )
                return Witness(color, (center,), sel[0], sel[1])
        return None
    big = [comp for comp in _color_structure(coloring, color) if comp.size >= k]
    if not big:
        return None
    class_a, class_b = tree_class_sizes(params)
    same_side = (c - 1) & 1 == 0
    # path vertices certain to be drawn from N(a_1) | N(a_c)
    guaranteed_mid = 0 if c == 2 else (1 if c == 3 else 2)
    seen_a1: set[int] = set()
    for a1 in range(r):
        nbrs = adj[a1]
        if nbrs.bit_count() < n + 1:
            continue
        low1 = 1 << a1
        info = next((comp for comp in big if comp.mask & low1), None)
        if info is None:
            continue
        ends = info.mask & ~low1
        if info.bipartite:
            here = info.side1 if info.side1 & low1 else info.mask ^ info.side1
            size_here = here.bit_count()
            if class_a > size_here or class_b > info.size - size_here:
                continue
            ends &= here if same_side else ~here
        if nbrs in seen_a1 or nbrs | low1 in seen_a1:
            continue
        seen_a1.add(nbrs)
        seen_a1.add(nbrs | low1)
        seen_ac: set[int] = set()
        while ends:
            low = ends & -ends
            ends ^= low
            ac = low.bit_length() - 1
            key = adj[ac]
            if key.bit_count() < m + 1:
                continue
            avail = ((nbrs | key) & ~low1 & ~low).bit_count()
            if avail - guaranteed_mid < n + m:
                continue
            if key in seen_ac or key | low in seen_ac:
                continue
            seen_ac.add(key)
            seen_ac.add(key | low)
            within = _reach_within(adj, ac, c - 1)
            if not within[c - 1] & low1:
                continue
            witness = _path_dfs(adj, color, c, n, m, a1, ac, within)
            if witness is not None:
                return witness
    return None


def _path_dfs(
    adj: list[int], color: Color, c: int, n: int, m: int, a1: int, ac: int, within: list[int]
) -> Witness | None:
    """First copy with a_1 = a1 and a_c = ac, extending the link in
    ascending vertex order, or None.

    within[d] masks the vertices at distance at most d from ac.  A link
    vertex placed at position placed + 1 still needs c - 1 - placed steps
    to reach ac, so the distance filter is one AND of extend's candidates
    with within[c - 1 - placed], taken before the twin test: the twin
    test sees only the surviving candidates, in ascending order.

    extend skips a candidate w when an earlier candidate w' of the same
    loop is its twin: the open keys adj[w] == adj[w'] (non-adjacent twins)
    or the closed keys adj[w] | 1 << w == adj[w'] | 1 << w' (adjacent
    twins, such as two vertices of a clique) are equal.  Both are unused,
    and swapping them is an automorphism of the color class that fixes a_1,
    a_c, every used vertex and the reach masks, so every filter reads the
    same for both and w's subtree holds a copy exactly when w''s does.  Had
    w' found one it would have returned before w was tried, so the skip
    changes no answer and no witness.  One seen set holds both kinds of
    key: an open key equal to a closed one, adj[u] == adj[v] | 1 << v,
    would put v in adj[u], hence u in adj[v] and u in adj[u], a loop.
    Equal unused neighbours (adj[w] & ~used) are not enough: twins that
    differ on a used vertex such as a_1 leave different pools behind.
    """
    ac_bit = 1 << ac
    a1_mask = adj[a1]
    ac_mask = adj[ac]
    path = [a1]

    def complete(used: int) -> Witness:
        # the leaf law already holds here: at c = 2 the degree and avail
        # prefilters of _find_in_color imply it, and at c >= 3 extend's
        # pool checks on the last link vertex test it on these very pools
        pmask = used | ac_bit
        sel = disjoint_leaf_selection(bits_of(a1_mask & ~pmask), bits_of(ac_mask & ~pmask), n, m)
        if sel is None:
            raise DetectionConsistencyError(
                f"leaf pools passed the counting bounds but admit no {n}+{m} selection"
            )
        return Witness(color, tuple(path) + (ac,), sel[0], sel[1])

    def extend(cur: int, used: int, placed: int) -> Witness | None:
        if placed == c - 1:
            # cur is in N(ac): at c >= 3 it came from within[1] minus ac, and
            # at c = 2 it is a1, passed only when within[1] holds it
            return complete(used)
        more_mid = 1 if placed + 1 < c - 1 else 0
        cand = adj[cur] & ~used & ~ac_bit & within[c - 1 - placed]
        seen = set()
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            nbrs = adj[w]
            if nbrs in seen or nbrs | low in seen:
                continue
            seen.add(nbrs)
            seen.add(nbrs | low)
            used2 = used | low
            if (a1_mask & ~used2 & ~ac_bit).bit_count() < n:
                continue
            if (ac_mask & ~used2).bit_count() < m + more_mid:
                continue
            if ((a1_mask | ac_mask) & ~used2 & ~ac_bit).bit_count() < n + m + more_mid:
                continue
            path.append(w)
            found = extend(w, used2, placed + 1)
            if found is not None:
                return found
            path.pop()
        return None

    return extend(a1, 1 << a1, 1)


def verify_witness(coloring: TwoColoring, params: LdsParams, witness: Witness) -> bool:
    """Check a claimed embedding edge by edge; False on any mismatch, a
    vertex outside 0..r-1 included."""
    r = coloring.r
    for v in witness.vertices():
        if not 0 <= v < r:
            return False
    path, n_leaves, m_leaves = witness.path, witness.n_leaves, witness.m_leaves
    if len(path) != params.c or len(n_leaves) != params.n or len(m_leaves) != params.m:
        return False
    verts = witness.vertices()
    if len(set(verts)) != len(verts):
        return False
    want = int(witness.color)
    for a, b in zip(path, path[1:]):
        if coloring.get_edge(a, b) != want:
            return False
    for leaf in n_leaves:
        if coloring.get_edge(path[0], leaf) != want:
            return False
    for leaf in m_leaves:
        if coloring.get_edge(path[-1], leaf) != want:
            return False
    return True


def brute_force_oracle(
    coloring: TwoColoring, params: LdsParams, restrict: Color | None = None
) -> Witness | None:
    """Flat enumeration of injective vertex maps; no shared search logic.

    Guarded to r <= 10 and at most 8 target vertices so it stays an oracle
    and never a temptation.
    """
    colors = _scan_colors(restrict)
    if coloring.r > 10 or params.vertex_count > 8:
        raise InstanceTooLargeError(
            f"oracle guard: r={coloring.r} (max 10), "
            f"target vertices={params.vertex_count} (max 8)"
        )
    if not coloring.is_complete:
        raise IncompleteColoringError("oracle requires a complete coloring")
    r = coloring.r
    c, n = params.c, params.n
    k = params.vertex_count
    edges = lds_edges(params)
    slots = coloring._slots
    for color in colors:
        want = int(color)
        for perm in itertools.permutations(range(r), k):
            for a, b in edges:
                i = perm[a]
                j = perm[b]
                if i > j:
                    i, j = j, i
                if slots[i * r - i * (i + 1) // 2 + (j - i - 1)] != want:
                    break
            else:
                return Witness(
                    color,
                    perm[:c],
                    tuple(sorted(perm[c : c + n])),
                    tuple(sorted(perm[c + n :])),
                )
    return None


def has_mono_copy_through_edge(
    coloring: TwoColoring, params: LdsParams, u: int, v: int, color: Color
) -> bool:
    """Does a monochromatic copy exist whose edge set contains {u, v}?

    Works on partial colorings (only edges of the given color can carry a
    copy) and is complete for copies through that edge, which is what the
    incremental search check relies on.
    """
    if u == v or not 0 <= u < coloring.r or not 0 <= v < coloring.r:
        raise ValueError(f"invalid pair ({u}, {v}) for r={coloring.r}")
    adj = coloring.adjacency(color)
    c, n, m = params.c, params.n, params.m
    if not (adj[u] >> v) & 1:
        return False
    if c == 1:
        need = n + m
        return adj[u].bit_count() >= need or adj[v].bit_count() >= need
    used = (1 << u) | (1 << v)
    if c == 2:
        # no interior vertex, so no walk: as the link the leaf law decides
        # each orientation; as a leaf edge of center x the other center w is
        # in x's pool, and x keeps n - 1 leaves (w needs m) or m - 1 (w needs
        # n); when x has too few for both, no pool reaches need = len(adj)
        pu = adj[u] & ~used
        pv = adj[v] & ~used
        a, b = pu.bit_count(), pv.bit_count()
        if (pu | pv).bit_count() >= n + m and (a >= n and b >= m or a >= m and b >= n):
            return True
        for px, free in ((pu, a), (pv, b)):
            need = m if n <= free else n if 0 < m <= free else len(adj)
            cand = px
            while cand:
                low = cand & -cand
                cand ^= low
                pw = adj[low.bit_length() - 1] & ~used
                if pw.bit_count() >= need and (px & ~low | pw).bit_count() >= n + m - 1:
                    return True
        return False
    # {u, v} as the link edge (a_j, a_{j+1}) = (u, v) for every j: the right
    # walk from v with a_1 = u, then one left walk from u whose prefixes
    # each try their end as a_1 and, one step past c - 1 vertices, end the
    # links from u that take v as a leaf.  (v, u) does the same from v.  At
    # n = m, (v, u) at j is (u, v) at c - j reversed, so the walk from v
    # only closes links at a_c = u, in place of the right walk from v.  The
    # order matters only when a copy exists; v first was faster on S_7(1,1).
    k = c - 2
    for s, t in ((v, u), (u, v)):
        if n != m and _ext_right(adj, t, used, k, s, n, m):
            return True
        if _left_walk(adj, s, s, t, used, k - 1, n, m, n != m or s == u):
            return True
    return False


def _left_walk(
    adj: list[int], cur: int, s: int, t: int, used: int, k: int, n: int, m: int, right: bool
) -> bool:
    """Step left past cur, the end of a prefix from s, to each w that
    becomes a_1 with k link vertices right of t still to place: w tries
    its right walk from t (only when right is set), then steps on.  At
    k = 0 the prefix s..w holds c - 1 vertices, so t is a_c and the leaf
    law decides, and each x one step past w ends a link from s that takes
    t as a leaf, where s keeps n - 1 leaves (x needs m) or m - 1 (x needs
    n).  At n = 0 the first law always holds.  Steps skip twins as
    _ext_right does (the swap fixes s and t, both used) and, when n > 0, a
    w with no unused neighbour, which has no leaf as a_1 and no step."""
    cand = adj[cur] & ~used
    seen = set()
    while cand:
        low = cand & -cand
        cand ^= low
        w = low.bit_length() - 1
        nbrs = adj[w]
        if nbrs in seen or n and not nbrs & ~used:
            continue
        seen.add(nbrs)
        used2 = used | low
        if k:
            if right and _ext_right(adj, t, used2, k, w, n, m):
                return True
            if _left_walk(adj, w, s, t, used2, k - 1, n, m, right):
                return True
            continue
        pw = nbrs & ~used
        pt = adj[t] & ~used2
        if pw.bit_count() >= n and pt.bit_count() >= m and (pw | pt).bit_count() >= n + m:
            return True
        ps = adj[s] & ~used2
        while pw:
            x = pw & -pw
            pw ^= x
            rest = ps & ~x
            px = adj[x.bit_length() - 1] & ~used2
            if (rest | px).bit_count() >= n + m - 1:
                r = rest.bit_count() + 1
                q = px.bit_count()
                if n <= r and q >= m or 0 < m <= r and q >= n:
                    return True
    return False


def _ext_right(adj: list[int], cur: int, used: int, k: int, a1: int, n: int, m: int) -> bool:
    """Walk k >= 1 more link vertices right of cur; the last one is a_c
    and the leaf law decides.  a_1's pool only shrinks as used grows, so
    the walk stops once it holds fewer than n leaves.

    A step skips w when an earlier candidate w' has adj[w] == adj[w']:
    such twins are unused and non-adjacent, so their swap is an
    automorphism of the color class that fixes every used vertex (cur and
    a_1 among them) and maps w's subtree onto w''s, which answered False.
    Equal unused neighbours are not enough: twins that differ on a used
    vertex such as a_1 leave different pools.  At k = 1 each candidate is
    a_c and costs one leaf-law check, less than the twin test.  Above it a
    step also skips a w that would stop at once: one with no unused
    neighbour, or one in a_1's pool when that pool has no leaf to spare."""
    pool_a = adj[a1] & ~used
    free = pool_a.bit_count()
    if free < n:
        return False
    cand = adj[cur] & ~used
    if k == 1:
        # the leaf law of disjoint_leaf_selection for each candidate a_c
        while cand:
            low = cand & -cand
            cand ^= low
            rest_a = pool_a & ~low
            if rest_a.bit_count() < n:
                continue
            pool_b = adj[low.bit_length() - 1] & ~used
            if pool_b.bit_count() >= m and (rest_a | pool_b).bit_count() >= n + m:
                return True
        return False
    if free == n:
        cand &= ~pool_a
    seen = set()
    while cand:
        low = cand & -cand
        cand ^= low
        w = low.bit_length() - 1
        nbrs = adj[w]
        if nbrs in seen or not nbrs & ~used:
            continue
        seen.add(nbrs)
        if _ext_right(adj, w, used | low, k - 1, a1, n, m):
            return True
    return False
