"""Per-layer spans recorded around desir's public functions, from outside desir.

The layers are desir's seven modules.  Tracer.install replaces each
public function of a layer, and a few methods, by a wrapper that records
a span, at every place the function is bound: its own module, every
module that imported it by name (desir.cones.solve, desir.cli.
lower_prevision, ...) and the package namespace.  No file of desir
changes; uninstall puts the originals back.

A span holds its name, layer, start, end, parent span and query id; the
tracer keeps them in memory and the run writes them out at its end.
layer_metrics turns them into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("lp", "gambles", "cones", "exchangeability", "bernstein", "io", "cli")

# Helpers called once per point or per value inside other layers' loops;
# a span there would cost more than the work it times.
UNTRACED = {
    "gambles": {"atom_size", "count_vector"},
    "bernstein": {"bernstein_eval"},
    "io": {"parse_rational", "format_rational", "point_key"},
}
METHODS = {
    "cones": (("DesirCone", "avoidance"),),
    "bernstein": (("BernsteinPoly", "raised"), ("BernsteinPoly", "evaluate"),
                  ("BernsteinCone", "avoidance")),
}
SCANS = ("has_positive_expansion", "has_nonpositive_expansion",
         "avoids_bernstein_nonpositivity", "bernstein_natex_member")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    query: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _lp_attrs(args, result) -> dict:
    problem = args[0]
    witness = result.witness or {}
    return {
        "rows": len(problem.equalities) + len(problem.inequalities),
        "cols": len(problem.variables),
        "free_cols": sum(1 for _, sign in problem.variables if sign == "free"),
        "infeasible": result.status == "infeasible",
        "den_bits": max((v.denominator.bit_length() for v in witness.values()), default=0),
    }


def _load_attrs(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _scan_attrs(args, result) -> dict:
    return {"decided": result.status not in ("undecided", "no_up_to_cap")}


PROBES: dict[str, Callable[[tuple, Any], dict]] = {
    "lp.solve": _lp_attrs,
    "gambles.kernel_basis": lambda args, result: {"vectors": len(result)},
    "io.load_json": _load_attrs,
    **{f"bernstein.{name}": _scan_attrs for name in SCANS},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, 0.0, parent=stack[-1] if stack else None, query=self.query)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.attrs = probe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib) -> None:
        """Wrap every public function of every layer wherever it is bound."""
        modules = [lib.desir] + [getattr(lib, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(lib, layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or attr in UNTRACED.get(layer, ())):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", layer, obj)
                for site in modules:
                    for site_attr, value in list(vars(site).items()):
                        if value is obj:
                            self._set(site, site_attr, wrapped)
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._set(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", layer,
                                                 getattr(cls, method)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                      "parent": s.parent, "query": s.query,
                                      **s.attrs}) + "\n")


def span_times(spans: list[Span]) -> tuple[list[float], list[bool]]:
    """Per span: its self time, and whether no ancestor is of the same layer.

    Self time is the span's duration minus the time its child spans
    cover; children of one span never overlap, as the run has one thread.
    Spans are in start order, so a parent precedes its children.
    """
    child = [0.0] * len(spans)
    outermost = [True] * len(spans)
    layer_above: list[set] = [set() for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            child[s.parent] += s.seconds
            layer_above[i] = layer_above[s.parent] | {spans[s.parent].layer}
            outermost[i] = s.layer not in layer_above[i]
    return [s.seconds - c for s, c in zip(spans, child)], outermost


def p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def layer_metrics(spans: list[Span], query_seconds: list[float], stdout_bytes: int) -> dict:
    """Per-layer metrics, per query where they are counts or times.

    lp.share is the lp layer's busy time over the summed wall time of
    the traced queries; trace.coverage is the time the top-level spans
    cover over the same base.
    """
    n = len(query_seconds)
    wall = sum(query_seconds)
    self_s, outermost = span_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        own = [i for i, s in enumerate(spans) if s.layer == layer]
        m[f"{layer}.calls"] = len(own) / n
        m[f"{layer}.busy_s"] = sum(spans[i].seconds for i in own if outermost[i]) / n
        m[f"{layer}.self_s"] = sum(self_s[i] for i in own) / n

    def named(name):
        return [s for s in spans if s.name == name]

    solves = named("lp.solve")
    times = [s.seconds for s in solves]
    m["lp.share"] = m["lp.busy_s"] * n / wall
    m["lp.solve_s.p50"], m["lp.solve_s.p90"] = p50_p90(times)
    for attr in ("rows", "cols", "free_cols"):
        m[f"lp.{attr}.mean"] = statistics.fmean(s.attrs[attr] for s in solves) if solves else 0.0
    m["lp.infeasible_ratio"] = (sum(s.attrs["infeasible"] for s in solves) / len(solves)
                                if solves else 0.0)
    m["lp.witness_den_bits.max"] = max((s.attrs["den_bits"] for s in solves), default=0)
    m["cones.coherence_lps"] = len(named("cones.avoids_nonpositivity")) / n
    m["gambles.kernel_vectors"] = sum(s.attrs["vectors"] for s in named("gambles.kernel_basis")) / n
    enl = named("exchangeability.enl")
    m["exchangeability.enl.calls"] = len(enl) / n
    m["exchangeability.enl.busy_s"] = sum(s.seconds for s in enl) / n
    raised = "bernstein.BernsteinPoly.raised"
    m["bernstein.raise_s"] = sum(s.seconds for s in named(raised)) / n
    evaluate = named("bernstein.BernsteinPoly.evaluate")
    m["bernstein.evaluate.calls"] = len(evaluate) / n
    m["bernstein.evaluate_s"] = sum(s.seconds for s in evaluate) / n
    m["bernstein.degree_steps"] = sum(1 for s in enl if s.parent is not None
                                      and spans[s.parent].name == raised) / n
    scans = [s for s in spans if "decided" in s.attrs]
    m["bernstein.decided_ratio"] = (sum(s.attrs["decided"] for s in scans) / len(scans)
                                    if scans else 0.0)
    m["io.bytes_read"] = sum(s.attrs["bytes"] for s in named("io.load_json")) / n
    m["cli.stdout_bytes"] = stdout_bytes / n
    m["trace.coverage"] = sum(s.seconds for s in spans if s.parent is None) / wall
    return m
