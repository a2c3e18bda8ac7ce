"""Closed-form lower bounds and the exactly-solved parameter regimes.

Every formula here carries a provenance tag naming the originating result,
and every gate is integer arithmetic only: the n <= sqrt(2)m test is the
integer comparison n^2 <= 2m^2, never a float.  Regimes this module does
not cover return None rather than a guess; stars and the path/star base
cases are deliberately left without formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lds import LdsParams

PROV_THM21_A = "Thm2.1-branch-A"
PROV_THM21_B = "Thm2.1-branch-B"
PROV_THM31 = "Thm3.1"
PROV_THM32 = "Thm3.2"
PROV_BROOM = "YuLiBroom"
PROV_S4 = "BurrErdosS4"
PROV_S2 = "GrossmanS2"
PROV_NONE = "none"


class UnsupportedParamsError(ValueError):
    """Raised when a formula's parameter domain excludes the request."""


@dataclass(frozen=True)
class LowerBound:
    """A lower-bound value with the branch that produced it.

    branch "A" is the two-equal-cliques bound 2(n+m+p)-1, branch "B" the
    small-clique-plus-large bound n+m+3p+1, "tie" when they coincide.
    At n = m = 0 branch B's construction is invalid, so only branch A is
    claimed.
    """

    value: int
    branch: str


def lower_bound_branches(params: LdsParams) -> tuple[int, int]:
    """The two candidate bound values (branch A, branch B) for odd c."""
    if not params.is_odd_link or params.c < 3:
        raise UnsupportedParamsError(f"lower bound needs c = 2p+1 with p >= 1, got c={params.c}")
    p = params.p
    s = params.n + params.m
    return 2 * (s + p) - 1, s + 3 * p + 1


def lower_bound(params: LdsParams) -> LowerBound:
    """Best construction-backed lower bound for odd link length."""
    a, b = lower_bound_branches(params)
    if params.n + params.m == 0:
        return LowerBound(a, "A")
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


def s4_ramsey(n: int, m: int) -> int:
    """Double stars linked by a two-edge path (c = 4)."""
    if n < m or m < 0:
        raise ValueError(f"need n >= m >= 0, got n={n}, m={m}")
    return max(2 * n + 3, n + 2 * m + 5)


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
        return s4_ramsey(n, m), PROV_S4
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
    lower_branch: str | None
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

    The lower bound is never below the target's own order: any complete
    graph with fewer vertices is trivially good.  For odd c >= 3 the
    Thm 2.1 bound lies above that order except at n = m = 0, where its
    2p-1 falls short of the path's 2p+1 vertices; there the report names
    no branch.
    """
    exact = exact_value(params)
    lower, branch, provenance = params.vertex_count, None, PROV_NONE
    if params.is_odd_link and params.c >= 3:
        lb = lower_bound(params)
        if lb.value >= lower:
            lower, branch = lb.value, lb.branch
            provenance = PROV_THM21_B if branch == "B" else PROV_THM21_A
    elif exact is not None:
        lower = exact[0]
    if exact is not None:
        if exact[0] < lower:
            raise AssertionError(
                f"exact value {exact[0]} below lower bound {lower} for {params.label()}"
            )
        provenance = exact[1]
    return BoundReport(
        params=params,
        lower=lower,
        lower_branch=branch,
        exact=exact[0] if exact else None,
        provenance=provenance,
    )
