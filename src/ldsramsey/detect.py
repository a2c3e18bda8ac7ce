"""Monochromatic-copy detection for the linked double star.

The detector is exhaustive: a ``None`` answer is a proof that no copy of the
target exists in the allowed colors.  All pruning below is therefore of the
sound kind only (component sizes, bipartition fit, reachability, degree and
pool bounds); the exactness of the final leaf-selection test is what lets a
completed path decide membership outright.

A deliberately naive permutation oracle is kept alongside as an independent
cross-check at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coloring import Color, IncompleteColoringError, TwoColoring, bits_of
from .lds import LdsParams, Witness, lds_edges, tree_class_sizes


class InstanceTooLargeError(ValueError):
    """Raised when the brute-force oracle guard rejects an instance."""


class InvalidWitnessError(ValueError):
    """Raised when a witness refers to vertices outside the coloring."""


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
    side_sizes: tuple[int, int]
    mask: int


def _color_structure(
    coloring: TwoColoring, color: Color
) -> tuple[list[int], list[int], list[_CompInfo]]:
    """Connected components of one color class, with 2-coloring sides."""
    r = coloring.r
    adj = coloring.adjacency(color)
    comp_id = [-1] * r
    side = [0] * r
    comps: list[_CompInfo] = []
    for start in range(r):
        if comp_id[start] != -1:
            continue
        cid = len(comps)
        comp_id[start] = cid
        stack = [start]
        mask = 1 << start
        sizes = [1, 0]
        bipartite = True
        while stack:
            v = stack.pop()
            vs = side[v]
            for w in bits_of(adj[v]):
                if comp_id[w] == -1:
                    comp_id[w] = cid
                    side[w] = vs ^ 1
                    sizes[vs ^ 1] += 1
                    mask |= 1 << w
                    stack.append(w)
                elif side[w] == vs:
                    bipartite = False
        comps.append(_CompInfo(sizes[0] + sizes[1], bipartite, (sizes[0], sizes[1]), mask))
    return comp_id, side, comps


def _bfs_dist(adj: list[int], r: int, src: int) -> list[int]:
    unreachable = r + 1
    dist = [unreachable] * r
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in bits_of(adj[v]):
                if dist[w] > d:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def find_mono_lds(
    coloring: TwoColoring, params: LdsParams, restrict: Color | None = None
) -> Witness | None:
    """First monochromatic copy in canonical scan order, or None.

    Scan order is fixed for reproducibility: red before blue, start pairs
    (a_1, a_c) ascending, path extension in ascending vertex order.  The
    absence answer is exhaustive.
    """
    if not coloring.is_complete:
        raise IncompleteColoringError("detection requires a complete coloring")
    if coloring.r < params.vertex_count:
        return None
    colors = (restrict,) if restrict is not None else (Color.RED, Color.BLUE)
    for color in colors:
        witness = _find_in_color(coloring, params, color)
        if witness is not None:
            if not verify_witness(coloring, params, witness):
                raise DetectionConsistencyError(
                    f"detector returned a witness that fails verification: {witness}"
                )
            return witness
    return None


def _find_in_color(coloring: TwoColoring, params: LdsParams, color: Color) -> Witness | None:
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
    comp_id, side, comps = _color_structure(coloring, color)
    if max(comp.size for comp in comps) < k:
        return None
    class_a, class_b = tree_class_sizes(params)
    want_parity = (c - 1) & 1
    # path vertices certain to be drawn from N(a_1) | N(a_c)
    guaranteed_mid = 0 if c == 2 else (1 if c == 3 else 2)
    dist_cache: dict[int, list[int]] = {}
    for a1 in range(r):
        if adj[a1].bit_count() < n + 1:
            continue
        info = comps[comp_id[a1]]
        if info.size < k:
            continue
        for ac in range(r):
            if ac == a1 or comp_id[ac] != comp_id[a1]:
                continue
            if adj[ac].bit_count() < m + 1:
                continue
            if info.bipartite:
                if (side[a1] ^ side[ac]) != want_parity:
                    continue
                here = info.side_sizes[side[a1]]
                if class_a > here or class_b > info.size - here:
                    continue
            avail = ((adj[a1] | adj[ac]) & ~(1 << a1) & ~(1 << ac)).bit_count()
            if avail - guaranteed_mid < n + m:
                continue
            dist = dist_cache.get(ac)
            if dist is None:
                dist = _bfs_dist(adj, r, ac)
                dist_cache[ac] = dist
            if dist[a1] > c - 1:
                continue
            witness = _path_dfs(adj, color, c, n, m, a1, ac, dist)
            if witness is not None:
                return witness
    return None


def _path_dfs(
    adj: list[int], color: Color, c: int, n: int, m: int, a1: int, ac: int, dist: list[int]
) -> Witness | None:
    ac_bit = 1 << ac
    a1_mask = adj[a1]
    ac_mask = adj[ac]
    path = [a1]

    def complete(used: int) -> Witness | None:
        pmask = used | ac_bit
        if not _leaf_feasible(adj, a1, ac, pmask, n, m):
            return None
        sel = disjoint_leaf_selection(bits_of(a1_mask & ~pmask), bits_of(ac_mask & ~pmask), n, m)
        if sel is None:
            raise DetectionConsistencyError(
                f"leaf pools passed the counting bounds but admit no {n}+{m} selection"
            )
        return Witness(color, tuple(path) + (ac,), sel[0], sel[1])

    def extend(cur: int, used: int, placed: int) -> Witness | None:
        if placed == c - 1:
            if (adj[cur] >> ac) & 1:
                return complete(used)
            return None
        more_mid = 1 if placed + 1 < c - 1 else 0
        cand = adj[cur] & ~used & ~ac_bit
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if dist[w] > c - 1 - placed:
                continue
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

    if c == 2:
        if (adj[a1] >> ac) & 1:
            return complete(1 << a1)
        return None
    return extend(a1, 1 << a1, 1)


def verify_witness(coloring: TwoColoring, params: LdsParams, witness: Witness) -> bool:
    """Check a claimed embedding edge by edge; False on any mismatch."""
    r = coloring.r
    for v in witness.vertices():
        if not 0 <= v < r:
            raise InvalidWitnessError(f"vertex {v} out of range for r={r}")
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
    colors = (restrict,) if restrict is not None else (Color.RED, Color.BLUE)
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
    return _mono_through(coloring.adjacency(color), params.c, params.n, params.m, u, v)


def _mono_through(adj: list[int], c: int, n: int, m: int, u: int, v: int) -> bool:
    if not (adj[u] >> v) & 1:
        return False
    if c == 1:
        need = n + m
        return adj[u].bit_count() >= need or adj[v].bit_count() >= need
    for s, t in ((u, v), (v, u)):
        for j in range(1, c):
            if _ext_left(adj, s, t, (1 << s) | (1 << t), j - 1, c - 1 - j, n, m):
                return True
    # {u, v} as a leaf edge: walk the link from the center with the leaf
    # already taken, one leaf fewer on its side; the law is symmetric
    # under (a_1, n) <-> (a_c, m), so an m-side leaf is the mirrored walk
    for center, leaf in ((u, v), (v, u)):
        used = (1 << center) | (1 << leaf)
        if n and _ext_right(adj, center, used, c - 1, center, n - 1, m):
            return True
        if m and _ext_right(adj, center, used, c - 1, center, m - 1, n):
            return True
    return False


def _leaf_feasible(adj: list[int], a1: int, ac: int, pmask: int, n: int, m: int) -> bool:
    """The leaf law of disjoint_leaf_selection on the pools off the path pmask."""
    pool_a = adj[a1] & ~pmask
    if pool_a.bit_count() < n:
        return False
    pool_b = adj[ac] & ~pmask
    if pool_b.bit_count() < m:
        return False
    return (pool_a | pool_b).bit_count() >= n + m


def _ext_left(
    adj: list[int], cur: int, t: int, used: int, k: int, right_k: int, n: int, m: int
) -> bool:
    if k == 0:
        if (adj[cur] & ~used).bit_count() < n:
            return False
        return _ext_right(adj, t, used, right_k, cur, n, m)
    cand = adj[cur] & ~used
    while cand:
        low = cand & -cand
        cand ^= low
        if _ext_left(adj, low.bit_length() - 1, t, used | low, k - 1, right_k, n, m):
            return True
    return False


def _ext_right(adj: list[int], cur: int, used: int, k: int, a1: int, n: int, m: int) -> bool:
    if k == 0:
        return _leaf_feasible(adj, a1, cur, used, n, m)
    cand = adj[cur] & ~used
    while cand:
        low = cand & -cand
        cand ^= low
        if _ext_right(adj, low.bit_length() - 1, used | low, k - 1, a1, n, m):
            return True
    return False
