"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Each workload is built from a freshly imported ``ldsramsey`` module and a
seed.  Building it generates every input (untimed, counted in set-up);
``run_pass`` makes the timed calls into the package and returns one
``Output`` per verdict; ``check`` re-verifies those outputs by an
independent route and returns the failures.  Only the detect-mix inputs
depend on the seed; the other workloads are fixed instances.

Every call into the package goes through a module attribute looked up at
call time (``L.search.compute_ramsey``, not a name bound at import), so
that the traced run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass


@dataclass
class Output:
    """One verdict of a pass: what was asked, what came back, how long.

    ``seconds`` is wall time and ``cpu_s`` the process CPU time of the call.
    """

    key: tuple
    value: object = None
    seconds: float = 0.0
    cpu_s: float = 0.0
    error: str | None = None


@dataclass
class PassResult:
    outputs: list[Output]
    wall_s: float
    cpu_s: float
    counts: dict


class _PassClock:
    """Wall and process CPU time of the block it wraps."""

    def __enter__(self):
        self.wall_s = time.perf_counter()
        self.cpu_s = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.wall_s
        self.cpu_s = time.process_time() - self.cpu_s


def _timed(key: tuple, call, *args) -> Output:
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        value = call(*args)
        error = None
    except Exception as exc:  # a raising call is a failed output, not a crash
        value, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return Output(key, value, wall, time.process_time() - cpu, error)


def warm_up(L) -> None:
    """Call every traced layer once on a tiny instance.

    Fills lazy state before timing and makes sure no per-layer figure of
    the traced run is empty on any workload.
    """
    small = L.LdsParams(3, 1, 1)
    outcome = L.search.compute_ramsey(small, 5, 6)
    if outcome.result != L.ExactValue(6):
        raise RuntimeError(f"warm-up search gave {outcome.result}, expected exact 6")
    text = L.search.export_dimacs(small, 5)
    L.search.parse_dimacs(text)
    L.search.dimacs_satisfiable_by_sweep(text)
    params = L.LdsParams(3, 2, 1)
    L.constructions.certify(L.construct_clique_plus(params), params, L.CLIQUE_PLUS)
    L.detect.find_mono_lds(L.construct_two_cliques(params), params)


# ---------------------------------------------------------------- search


class SearchWorkload:
    """compute_ramsey on [10, 11]: a good coloring at 10, exhaustion at 11.

    The expected value is the search-verified 11 for both targets, not
    ``exact_value``, whose closed form gave 12 for S_2(5,1) when this was
    written.
    """

    EXPECTED = 11

    def __init__(self, L, seed: int, shape: tuple[int, int, int]):
        self.L = L
        self.params = L.LdsParams(*shape)
        self.first: PassResult | None = None

    def run_pass(self) -> PassResult:
        with _PassClock() as clock:
            out = _timed((self.params.label(),), self.L.search.compute_ramsey, self.params, 10, 11)
        counts = {}
        if out.error is None:
            counts = {"nodes": out.value.nodes_explored, "result": repr(out.value.result)}
        return PassResult([out], clock.wall_s, clock.cpu_s, counts)

    def check(self, result: PassResult) -> list[str]:
        (out,) = result.outputs
        if out.error is not None:
            return [f"{out.key}: {out.error}"]
        outcome = out.value
        if outcome.result != self.L.ExactValue(self.EXPECTED):
            return [f"{out.key}: result {outcome.result}, expected exact {self.EXPECTED}"]
        good = outcome.good_coloring
        if good is None or good.r != self.EXPECTED - 1:
            return [f"{out.key}: no good coloring on {self.EXPECTED - 1} vertices"]
        if self.first is not None:
            # the same deterministic pass again: outputs must repeat exactly
            prev = self.first.outputs[0].value
            if result.counts != self.first.counts or good != prev.good_coloring:
                return [f"{out.key}: pass differs from the first pass {result.counts}"]
            return []
        self.first = result
        witness = self.L.brute_force_oracle(good, self.params)
        if witness is not None:
            return [f"{out.key}: oracle found {witness} in the good coloring"]
        return []


# ---------------------------------------------------------------- detect-mix


def _relabeled(L, r: int, slots: list[int], perm: list[int]):
    coloring = L.TwoColoring(r)
    idx = 0
    for i in range(r):
        pi = perm[i]
        for j in range(i + 1, r):
            coloring.set_edge(pi, perm[j], slots[idx])
            idx += 1
    return coloring


_SLOT_VALUES = {"R": 1, "B": 2}


def _slots_of(coloring) -> list[int]:
    return [_SLOT_VALUES[ch] for ch in coloring.slot_string()]


def _apportion(weights: list[int], total: int) -> list[int]:
    """Split total in proportion to weights, largest remainders first."""
    whole = sum(weights)
    shares = [total * w // whole for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: -(total * weights[i] % whole))
    for i in by_remainder[: total - sum(shares)]:
        shares[i] += 1
    return shares


def _stratified_flips(base, copies: int, rng: random.Random) -> list[tuple[int, ...]]:
    """copies one-edge and copies two-edge flips of a split coloring.

    Edges of a split coloring fall into classes by the blocks of their
    ends, and all edges of a class are alike under the coloring's
    symmetries.  Each class (or pair of classes) gets a fixed share of the
    flips, in proportion to its size, so the seed picks which edges and
    never how many of each kind; that keeps the stream's cost steady from
    seed to seed.
    """
    r = base.r
    # vertex 0 and its red neighbours form the first block
    block = [0 if v == 0 or base.get_edge(0, v) == 1 else 1 for v in range(r)]
    classes: dict[tuple[int, int], list[int]] = {}
    t = 0
    for i in range(r):
        for j in range(i + 1, r):
            classes.setdefault((block[i], block[j]), []).append(t)
            t += 1
    groups = list(classes.values())
    flips: list[tuple[int, ...]] = []
    for group, n in zip(groups, _apportion([len(g) for g in groups], copies)):
        flips += [(t,) for t in rng.sample(group, n)] if n <= len(group) else [
            (rng.choice(group),) for _ in range(n)]
    pairs = [(a, b) for a in range(len(groups)) for b in range(a, len(groups))]
    sizes = [
        len(groups[a]) * (len(groups[a]) - 1) // 2 if a == b else len(groups[a]) * len(groups[b])
        for a, b in pairs
    ]
    for (a, b), n in zip(pairs, _apportion(sizes, copies)):
        for _ in range(n):
            first, second = rng.sample(groups[a], 2) if a == b else (
                rng.choice(groups[a]), rng.choice(groups[b]))
            flips.append((first, second))
    return flips


@dataclass
class _Item:
    params: object
    coloring: object
    family: str | None = None  # set for an exact construction, which goes to certify


class DetectMixWorkload:
    """A seeded stream of complete colorings through the detector.

    Composition is fixed; the seed picks the random colorings, the edges
    flipped in the near-extremal ones, and every relabeling.  The random
    colorings set the median, the near-extremal ones (a third to
    a half copy-free, each such proof exhaustive) make the tail and most
    of the pass time, and the exact constructions exercise ``certify``.
    """

    RANDOM_COUNT = 3000
    RANDOM_TARGETS = ((7, 3, 2), (7, 2, 1))
    # (shape, family, copies with one flipped edge and again with two).
    # Clique-plus near S_9(2,1) or S_7(3,2) finds some copies only after
    # 30-500 ms under unlucky relabelings, so the few such colorings a seed
    # drew would decide the pass time; these cells keep the tail short.
    NEAR_CELLS = (
        ((7, 1, 1), "clique-plus", 100),
        ((7, 2, 1), "clique-plus", 100),
        ((7, 3, 2), "two-cliques", 50),
        ((5, 3, 2), "clique-plus", 100),
        ((5, 4, 2), "clique-plus", 100),
    )
    EXACT_SHAPES = ((3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (5, 1, 1), (5, 2, 1),
                    (5, 3, 2), (7, 2, 1), (7, 3, 2))
    EXACT_COPIES = 4
    # the oracle re-checks a copy-free answer only where it is cheap
    ORACLE_MAX_R = 8

    def __init__(self, L, seed: int):
        self.L = L
        rng = random.Random(seed)
        builders = {L.CLIQUE_PLUS: L.construct_clique_plus, L.TWO_CLIQUES: L.construct_two_cliques}
        items: list[_Item] = []
        for k in range(self.RANDOM_COUNT):
            r = 12 + k % 9
            n_slots = r * (r - 1) // 2
            bits = rng.getrandbits(n_slots)
            slots = [1 + ((bits >> t) & 1) for t in range(n_slots)]
            params = L.LdsParams(*self.RANDOM_TARGETS[k % len(self.RANDOM_TARGETS)])
            items.append(_Item(params, _relabeled(L, r, slots, list(range(r)))))
        for shape, family, copies in self.NEAR_CELLS:
            params = L.LdsParams(*shape)
            base = builders[family](params)
            r = base.r
            for flip in _stratified_flips(base, copies, rng):
                slots = _slots_of(base)
                for t in flip:
                    slots[t] = 3 - slots[t]
                perm = list(range(r))
                rng.shuffle(perm)
                items.append(_Item(params, _relabeled(L, r, slots, perm)))
        for shape in self.EXACT_SHAPES:
            params = L.LdsParams(*shape)
            for family, build in builders.items():
                base = build(params)
                for _ in range(self.EXACT_COPIES):
                    perm = list(range(base.r))
                    rng.shuffle(perm)
                    coloring = _relabeled(L, base.r, _slots_of(base), perm)
                    items.append(_Item(params, coloring, family))
        # interleave the kinds so a slow stretch is not one kind alone
        rng.shuffle(items)
        self.items = items
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.first: PassResult | None = None

    def run_pass(self) -> PassResult:
        L = self.L
        find = L.detect.find_mono_lds
        certify = L.constructions.certify
        outputs = []
        with _PassClock() as clock:
            for k, item in enumerate(self.items):
                if item.family is None:
                    outputs.append(_timed((k,), find, item.coloring, item.params))
                else:
                    outputs.append(_timed((k,), certify, item.coloring, item.params, item.family))
        return PassResult(
            outputs, clock.wall_s, clock.cpu_s, {"verdicts": self.verdict_vector(outputs)}
        )

    @staticmethod
    def _witness(out: Output):
        value = out.value
        return value.witness if hasattr(value, "witness") else value

    def verdict_vector(self, outputs: list[Output]) -> str:
        """sha256 over every answer, witness included, in stream order."""
        digest = hashlib.sha256()
        for out in outputs:
            w = None if out.error else self._witness(out)
            digest.update(repr(out.error or (w and w.to_json_dict())).encode())
        return digest.hexdigest()

    def copy_free_count(self, result: PassResult) -> int:
        return sum(1 for out in result.outputs if out.error is None and self._witness(out) is None)

    def check(self, result: PassResult) -> list[str]:
        if self.first is not None:
            if result.counts != self.first.counts:
                return ["detect-mix: verdict vector differs from the first pass"]
            return []
        self.first = result
        L = self.L
        failures = []
        for item, out in zip(self.items, result.outputs):
            if out.error is not None:
                failures.append(f"item {out.key}: {out.error}")
                continue
            if item.family is not None and out.value.verdict != "certified":
                failures.append(f"item {out.key}: {item.family} construction refuted")
                continue
            witness = self._witness(out)
            if witness is not None:
                if not L.verify_witness(item.coloring, item.params, witness):
                    failures.append(f"item {out.key}: witness does not embed")
                continue
            problem = self._recheck_copy_free(item)
            if problem:
                failures.append(f"item {out.key}: {problem}")
        return failures

    def _recheck_copy_free(self, item: _Item) -> str | None:
        L = self.L
        coloring, params = item.coloring, item.params
        if coloring.r <= self.ORACLE_MAX_R and params.vertex_count <= 8:
            witness = L.brute_force_oracle(coloring, params)
            return f"oracle found {witness}" if witness is not None else None
        perm = list(range(coloring.r))
        self.check_rng.shuffle(perm)
        again = _relabeled(L, coloring.r, _slots_of(coloring), perm)
        witness = L.detect.find_mono_lds(again, params)
        return f"relabeled rerun found {witness}" if witness is not None else None


# ---------------------------------------------------------------- sat-export


class SatExportWorkload:
    """DIMACS export at growing r, then parse and sweep on small instances.

    Each exported text must match the sha256 recorded here from the
    initial implementation, whose output any rewrite must keep byte for
    byte; the sweep verdicts must agree with search.
    """

    # (shape, r) -> (sha256, edge sets)
    EXPORTS = {
        ((3, 3, 2), 8): (
            "537cc737dd8e8107790d5c58959d5a4e54d45908f6165569885d7d8e7dd0efad",
            3360),
        ((3, 3, 2), 9): (
            "0f91d0f1e0cdf649e44c9a8647ee97a49005813aaeec4d903abe8aa7f6d4c0ae",
            30240),
        ((3, 3, 2), 10): (
            "cdc9aca9ea37f190ec8b1d4bde1e7f8158e95d777093746f8f7f8d141dc4cd54",
            151200),
        ((4, 2, 1), 9): (
            "706be0bfae3a94c4e99bec91863c9fd3305defb85cff42c3913177f8ef3822cd",
            90720),
    }
    # the sweep confirms the threshold r(S_3(1,1)) = 6: satisfiable at 5, not at 6;
    # both instances make one verdict, which search must agree with
    SWEEP_SHAPE = (3, 1, 1)
    SWEEP_EXPECTED = {5: True, 6: False}

    def __init__(self, L, seed: int):
        self.L = L

    def _sweep_threshold(self, params) -> dict:
        L = self.L
        found = {}
        for r in self.SWEEP_EXPECTED:
            text = L.search.export_dimacs(params, r)
            n_vars, clauses = L.search.parse_dimacs(text)
            found[r] = (text, n_vars, clauses, L.search.dimacs_satisfiable_by_sweep(text))
        return found

    def run_pass(self) -> PassResult:
        L = self.L
        outputs = []
        with _PassClock() as clock:
            for shape, r in self.EXPORTS:
                outputs.append(_timed((shape, r), L.search.export_dimacs, L.LdsParams(*shape), r))
            sweep_params = L.LdsParams(*self.SWEEP_SHAPE)
            outputs.append(_timed((self.SWEEP_SHAPE, "sweep"), self._sweep_threshold, sweep_params))
        counts = {}
        for out in outputs:
            if out.error is None and out.key in self.EXPORTS:
                counts[repr(out.key)] = _edge_sets(out.value)
            elif out.error is None:
                for r, (text, *_) in out.value.items():
                    counts[repr((self.SWEEP_SHAPE, r))] = _edge_sets(text)
        return PassResult(outputs, clock.wall_s, clock.cpu_s, {"edge_sets": counts})

    def check(self, result: PassResult) -> list[str]:
        failures = []
        for out in result.outputs:
            if out.error is not None:
                failures.append(f"{out.key}: {out.error}")
                continue
            if out.key in self.EXPORTS:
                problem = self._check_export(out.key, out.value)
            else:
                problem = self._check_sweep(out.value)
            if problem:
                failures.append(f"{out.key}: {problem}")
        return failures

    def _check_export(self, key, text: str) -> str | None:
        want_sha, want_sets = self.EXPORTS[key]
        sha = hashlib.sha256(text.encode()).hexdigest()
        if sha != want_sha:
            return f"sha256 {sha} != recorded {want_sha}"
        sets = _edge_sets(text)
        lines = text.splitlines()
        header = [line for line in lines if line.startswith("p cnf")]
        clause_lines = sum(1 for line in lines if line[:1] not in "cp")
        if sets != want_sets or header != [f"p cnf {_vars(key[1])} {2 * sets}"]:
            return f"header says {sets} edge sets / {header}, expected {want_sets}"
        if clause_lines != 2 * sets:
            return f"{clause_lines} clause lines for {sets} edge sets"
        return None

    def _check_sweep(self, found: dict) -> str | None:
        L = self.L
        params = L.LdsParams(*self.SWEEP_SHAPE)
        for r, expected in self.SWEEP_EXPECTED.items():
            text, n_vars, clauses, satisfiable = found[r]
            if n_vars != _vars(r) or len(clauses) != 2 * _edge_sets(text):
                return f"r={r}: parsed {n_vars} vars / {len(clauses)} clauses"
            good = L.search.find_good_coloring(params, r, None, L.SearchStats())
            if satisfiable != expected or (good is not None) != expected:
                return (f"r={r}: sweep says {satisfiable}, search says {good is not None}, "
                        f"expected {expected}")
        return None


def _vars(r: int) -> int:
    return r * (r - 1) // 2


def _edge_sets(text: str) -> int:
    for line in text.splitlines():
        if line.startswith("c embeddings="):
            return int(line.split("edge-sets=")[1].split()[0])
    raise ValueError("DIMACS text has no edge-set comment")


WORKLOADS = {
    "search-short-link": lambda L, seed: SearchWorkload(L, seed, (2, 5, 1)),
    "search-long-link": lambda L, seed: SearchWorkload(L, seed, (6, 1, 1)),
    "detect-mix": DetectMixWorkload,
    "sat-export": SatExportWorkload,
}
