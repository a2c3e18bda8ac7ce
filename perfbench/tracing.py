"""Span and counter recorders wrapped around module attributes.

The traced run replaces a few attributes of the imported package with
wrappers that time each call and charge its duration to the caller's
span, so a layer's self time is its duration minus its children's.
Every layer keeps aggregate counters; layers called at most a few
thousand times per pass also keep one span record per call, held in
memory and written out when the run ends.  ``restore`` puts the original
attributes back.
"""

from __future__ import annotations

import json
import time


class LayerStats:
    __slots__ = ("calls", "total", "child", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.hits = 0  # calls whose result was truthy: a copy or witness found

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self) -> None:
        # each open call has a frame: [child seconds, span id]
        self.stack: list[list] = [[0.0, None]]
        self.layers: dict[str, LayerStats] = {}
        self.spans: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    def wrap(self, name: str, fn, keep_spans: bool = True, describe=None):
        """A callable that runs fn and records it under name.

        describe(args, result, before) returns extra span attributes;
        ``before`` is what describe(args, None, None) returned on entry.
        """
        stats = self.layer(name)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        if not keep_spans:
            def traced_fast(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    stats.calls += 1
                    stats.total += elapsed
                    stats.child += frame[0]
                if result:
                    stats.hits += 1
                return result

            return traced_fast

        def traced(*args, **kwargs):
            span_id = len(spans)
            span = {"id": span_id, "parent": stack[-1][1], "name": name}
            spans.append(span)
            before = describe(args, None, None) if describe else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                stats.calls += 1
                stats.total += elapsed
                stats.child += frame[0]
                span.update(start=start, end=end, self=elapsed - frame[0])
            if result:
                stats.hits += 1
            if describe:
                span.update(describe(args, result, before))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, keep_spans: bool = True, describe=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep_spans, describe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        doc = {
            **header,
            "layers": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time, "hits": s.hits}
                for name, s in sorted(self.layers.items())
            },
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _probe_describe(args, result, before):
    # find_good_coloring(params, r, opts, stats): nodes come from the stats delta
    stats = args[3] if len(args) > 3 else None
    nodes = stats.nodes if stats is not None else 0
    if before is None:
        return {"nodes_before": nodes}
    return {
        "r": args[1],
        "verdict": "good" if result is not None else "exhausted",
        "nodes": nodes - before["nodes_before"],
    }


def _export_describe(args, result, before):
    if before is None:
        return {}
    header = next(line for line in result.splitlines() if line.startswith("c embeddings="))
    fields = dict(part.split("=") for part in header[2:].split())
    return {
        "embeddings": int(fields["embeddings"]),
        "edge_sets": int(fields["edge-sets"]),
        "bytes": len(result),
    }


def install(tracer: Tracer, L) -> None:
    """Wrap the layer boundaries of the imported package ``L``."""
    tracer.patch(L.search, "compute_ramsey", "search.compute_ramsey")
    tracer.patch(L.search, "find_good_coloring", "search.probe", describe=_probe_describe)
    tracer.patch(L.search, "has_mono_copy_through_edge", "detect.through_edge", keep_spans=False)
    tracer.patch(L.coloring.TwoColoring, "set_edge", "coloring.set_edge", keep_spans=False)
    tracer.patch(L.search, "find_mono_lds", "detect.find_mono")
    tracer.patch(L.constructions, "find_mono_lds", "detect.find_mono")
    tracer.patch(L.detect, "find_mono_lds", "detect.find_mono")
    tracer.patch(L.constructions, "certify", "constructions.certify")
    tracer.patch(L.search, "export_dimacs", "search.export_dimacs", describe=_export_describe)
    tracer.patch(L.search, "parse_dimacs", "search.parse_dimacs")
    tracer.patch(L.search, "dimacs_satisfiable_by_sweep", "search.sweep")


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    """The per-layer metrics, each as (value, unit); shares are of traced_wall."""
    layer = tracer.layer
    probes = [s for s in tracer.spans if s["name"] == "search.probe"]
    nodes = sum(s["nodes"] for s in probes)
    engine = layer("search.probe")
    through = layer("detect.through_edge")
    mono = layer("detect.find_mono")
    set_edge = layer("coloring.set_edge")
    certify = layer("constructions.certify")
    export = layer("search.export_dimacs")
    exports = [s for s in tracer.spans if s["name"] == "search.export_dimacs"]
    embeddings = sum(s["embeddings"] for s in exports)

    def per_call_us(s: LayerStats) -> float:
        return s.total / s.calls * 1e6 if s.calls else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def share(s: LayerStats) -> float:
        return ratio(s.self_time, traced_wall)

    return {
        "search.nodes": (nodes, "count"),
        "search.probes": (len(probes), "count"),
        "search.engine.self_us_per_node": (ratio(engine.self_time, nodes) * 1e6, "us"),
        "search.engine.self_share": (share(engine), "ratio"),
        "search.lex_prune_ratio": (ratio(nodes - through.calls, nodes), "ratio"),
        "detect.through_edge.calls": (through.calls, "count"),
        "detect.through_edge.us_per_call": (per_call_us(through), "us"),
        "detect.through_edge.copy_ratio": (ratio(through.hits, through.calls), "ratio"),
        "detect.through_edge.self_share": (share(through), "ratio"),
        "detect.find_mono.calls": (mono.calls, "count"),
        "detect.find_mono.us_per_call": (per_call_us(mono), "us"),
        "detect.find_mono.found_ratio": (ratio(mono.hits, mono.calls), "ratio"),
        "detect.find_mono.self_share": (share(mono), "ratio"),
        "coloring.set_edge.calls": (set_edge.calls, "count"),
        "coloring.set_edge.us_per_call": (per_call_us(set_edge), "us"),
        "coloring.set_edge.self_share": (share(set_edge), "ratio"),
        "constructions.certify.calls": (certify.calls, "count"),
        "constructions.certify.us_per_call": (per_call_us(certify), "us"),
        "search.export_dimacs.s": (export.self_time, "s"),
        "search.export_dimacs.edge_set_ratio": (
            ratio(sum(s["edge_sets"] for s in exports), embeddings), "ratio"),
        "search.export_dimacs.bytes": (sum(s["bytes"] for s in exports), "bytes"),
        "search.export_dimacs.self_share": (share(export), "ratio"),
        "search.parse_dimacs.s": (layer("search.parse_dimacs").self_time, "s"),
        "search.sweep.s": (layer("search.sweep").self_time, "s"),
    }
