"""Closed-form lower bounds and the exactly-solved parameter regimes.

The lower bound is Burr's, which holds for every tree: with t1 >= t2 the
sizes of the tree's bipartition classes and k = t1 + t2 its order,
r(T) >= max(2t1 - 1, t1 + 2t2 - 1) (S. A. Burr, "Generalized Ramsey theory
for graphs -- a survey", 1974).  For odd c >= 3 with a star leaf it is the
paper's Thm 2.1 bound max(2(n+m+p) - 1, n+m+3p+1), and at c = 4 it is the
Burr-Erdos value itself.

Every formula here carries a provenance tag naming the originating result,
and every gate is integer arithmetic only: the n <= sqrt(2)m test is the
integer comparison n^2 <= 2m^2, never a float.  Regimes this module does
not cover return None rather than a guess; stars and the path/star base
cases are deliberately left without exact formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lds import LdsParams, tree_class_sizes

PROV_THM21_A = "Thm2.1-branch-A"
PROV_THM21_B = "Thm2.1-branch-B"
PROV_THM31 = "Thm3.1"
PROV_THM32 = "Thm3.2"
PROV_BROOM = "YuLiBroom"
PROV_S4 = "BurrErdosS4"
PROV_S2 = "GrossmanS2"
PROV_BURR = "Burr"


@dataclass(frozen=True)
class LowerBound:
    """A lower-bound value with the branch that produced it.

    branch "A" is the two-equal-cliques bound 2t1 - 1, branch "B" the
    small-clique-plus-large bound t1 + 2t2 - 1, "tie" when they coincide.
    """

    value: int
    branch: str


def lower_bound_branches(params: LdsParams) -> tuple[int, int]:
    """Burr's two candidate bound values (branch A, branch B)."""
    t2, t1 = sorted(tree_class_sizes(params))
    return 2 * t1 - 1, t1 + 2 * t2 - 1


def lower_bound(params: LdsParams) -> LowerBound:
    """Best construction-backed lower bound, for every tree."""
    a, b = lower_bound_branches(params)
    if a > b:
        return LowerBound(a, "A")
    if b > a:
        return LowerBound(b, "B")
    return LowerBound(a, "tie")


def s2_ramsey(n: int, m: int) -> int | None:
    """Double stars (c = 2), exact outside the gap sqrt(2)m < n < 3m.

    m = 0 degenerates to a star and is excluded: the piecewise formula
    disagrees with the classical diagonal star value there.  The odd-n
    small-m branch is likewise applied only on the n >= 3m side; its only
    instance on the other side would be (1, 1), where the plain branch
    matches the path value and the special one does not.
    """
    if n < m or m < 0:
        raise ValueError(f"need n >= m >= 0, got n={n}, m={m}")
    if m < 1:
        return None
    low_side = n * n <= 2 * m * m
    high_side = n >= 3 * m
    if not (low_side or high_side):
        return None
    if n % 2 == 1 and m <= 2 and high_side:
        # Grossman-Harary-Klawe give max(2n+1, n+2m+2); n >= 3m puts 2n+1 on top
        return 2 * n + 1
    return max(n + 2 * m + 2, 2 * n + 2)


def broom_ramsey(n: int, c: int) -> int | None:
    """Brooms: a path on c vertices with n extra leaves at one end.

    None for n <= 1 or c <= 2 (path/star base cases, not restated here).
    c = 3 delegates to the double-star value with a single opposite leaf,
    so it inherits that formula's gap.
    """
    if n <= 1 or c <= 2:
        return None
    if c == 3:
        return s2_ramsey(n, 1)
    half_up = (c + 1) // 2
    if c >= 2 * n - 1:
        return n + c + half_up - 1
    return 2 * (n + c) - 2 * half_up - 1


def exact_value(params: LdsParams) -> tuple[int, str] | None:
    """Exact Ramsey value with provenance, when a covered regime applies.

    Gates are checked in a fixed order; m = 0 is routed through the broom
    gate even when n >= c, the two being equal where they overlap (that
    agreement is tested, not assumed).
    """
    c, n, m = params.c, params.n, params.m
    if c % 2 == 1 and c >= 3:
        p = (c - 1) // 2
        if m >= 1 and n >= c:
            return 2 * (n + m) + c - 2, PROV_THM31
        if m == 2 and n <= p - 2:
            return n + 3 * p + 3, PROV_THM32
    if m == 0:
        value = broom_ramsey(n, c)
        if value is not None:
            return value, PROV_BROOM
    if c == 4:
        # Burr and Erdos: at c = 4 the bipartition bound is exact
        return lower_bound(params).value, PROV_S4
    if c == 2:
        value = s2_ramsey(n, m)
        if value is not None:
            return value, PROV_S2
    return None


@dataclass(frozen=True)
class BoundReport:
    """What is known about one parameter set from formulas alone."""

    params: LdsParams
    lower: int
    lower_branch: str
    exact: int | None
    provenance: str

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "lower": self.lower,
            "lower_branch": self.lower_branch,
            "exact": self.exact,
            "provenance": self.provenance,
        }


def bound_report(params: LdsParams) -> BoundReport:
    """Combine the lower bound and the exact-value gates for one target.

    Burr's branch B is k + t2 - 1, never below the target's order k, so the
    report needs no clamp to the vertex count.  The provenance names the
    exact value's source when there is one; otherwise Thm 2.1's branch
    where the paper states it (odd c >= 3, n + m >= 1), and Burr elsewhere.
    """
    exact = exact_value(params)
    lb = lower_bound(params)
    if exact is not None:
        if exact[0] < lb.value:
            raise AssertionError(
                f"exact value {exact[0]} below lower bound {lb.value} for {params.label()}"
            )
        provenance = exact[1]
    elif params.is_odd_link and params.c >= 3 and params.n + params.m >= 1:
        provenance = PROV_THM21_B if lb.branch == "B" else PROV_THM21_A
    else:
        provenance = PROV_BURR
    return BoundReport(
        params=params,
        lower=lb.value,
        lower_branch=lb.branch,
        exact=exact[0] if exact else None,
        provenance=provenance,
    )
