"""In-memory spans around foltl's public entry points.

The benchmark wraps the names foltl looks up at call time (module
globals, the ``Automaton.delta`` method, the ``networkx`` module seen by
``foltl.acceptance``), records one span per call and derives per-layer
counts and self times.  A span's self time is its duration minus the
time its direct children cover; calls are single-threaded, so children
never overlap.

Targets that a later version of foltl no longer has are skipped, and
their metrics read 0.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

import foltl.acceptance
import foltl.automaton
import foltl.cli
import foltl.events
import foltl.formula
import foltl.monitor

_clock = time.perf_counter

# (object foltl looks the name up on, attribute, span name)
PATCHES = (
    (foltl.formula, "parse", "formula.parse"),
    (foltl.cli, "parse", "formula.parse"),
    (foltl.formula, "to_nnf", "formula.to_nnf"),
    (foltl.cli, "to_nnf", "formula.to_nnf"),
    (foltl.automaton, "build_automaton", "automaton.build"),
    (foltl.cli, "build_automaton", "automaton.build"),
    (foltl.automaton.Automaton, "delta", "automaton.delta"),
    (foltl.automaton, "to_dnf", "automaton.to_dnf"),
    (foltl.automaton, "dom", "events.dom"),
    (foltl.monitor, "dnf_and", "automaton.dnf_and"),
    (foltl.monitor, "dnf_or", "automaton.dnf_or"),
    (foltl.events, "parse_message", "events.parse_message"),
    (foltl.monitor, "step", "monitor.step"),
    (foltl.cli, "step", "monitor.step"),
    (foltl.acceptance, "lasso_accepts", "acceptance.lasso_accepts"),
)

# Per-layer metrics in report order: name -> unit.
LAYER_UNITS = {
    "formula.parse.us": "us",
    "formula.to_nnf.us": "us",
    "automaton.build.us": "us",
    "automaton.states.mean": "count",
    "automaton.delta.calls": "count",
    "automaton.delta.self_s": "s",
    "automaton.to_dnf.calls": "count",
    "automaton.to_dnf.self_s": "s",
    "automaton.dnf_and.calls": "count",
    "automaton.dnf_and.self_s": "s",
    "automaton.dnf_or.self_s": "s",
    "events.parse_message.calls": "count",
    "events.parse_message.self_s": "s",
    "events.dom.calls": "count",
    "events.dom.self_s": "s",
    "monitor.step.calls": "count",
    "monitor.step.self_s": "s",
    "monitor.step.mean_us": "us",
    "monitor.delta_per_step": "1/step",
    "monitor.obligations.peak": "count",
    "monitor.obligations.mean": "count",
    "acceptance.lasso_accepts.calls": "count",
    "acceptance.lasso_accepts.self_s": "s",
    "acceptance.nx.self_s": "s",
    "acceptance.product.nodes.sum": "count",
    "acceptance.product.nodes.max": "count",
    "acceptance.product.edges.sum": "count",
    "acceptance.delta_per_case": "1/case",
    "acceptance.oracle.self_s": "s",
    "acceptance.oracle.iterations": "count",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.slowdown": "ratio",
}


class Tracer:
    """Spans in parallel arrays: name, start, end, parent span, request id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.current_request = -1
        self.samples: dict[str, list[float]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def observe(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after`` sees each result untimed."""
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        covered = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for index, name_id in enumerate(self.name):
            duration = self.end[index] - self.start[index]
            entry = out[self.names[name_id]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered[index]
        return {name: tuple(entry) for name, entry in out.items()}

    def write(self, path) -> None:
        """One tab-separated row per span, times in microseconds from the first."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for index in range(len(self.start)):
                handle.write(
                    f"{index}\t{self.parent[index]}\t{self.request[index]}\t"
                    f"{self.names[self.name[index]]}\t"
                    f"{(self.start[index] - origin) * 1e6:.3f}\t"
                    f"{(self.end[index] - origin) * 1e6:.3f}\n"
                )


def _traced_networkx(tracer: Tracer, real):
    """The two networkx names lasso_accepts uses, with graph build and SCC timed."""

    class DiGraph(real.DiGraph):
        add_nodes_from = tracer.wrap("acceptance.nx", real.DiGraph.add_nodes_from)
        add_edges_from = tracer.wrap("acceptance.nx", real.DiGraph.add_edges_from)

    components = tracer.wrap(
        "acceptance.nx", lambda graph: list(real.strongly_connected_components(graph))
    )

    def strongly_connected_components(graph):
        tracer.observe("product.nodes", graph.number_of_nodes())
        tracer.observe("product.edges", graph.number_of_edges())
        return components(graph)

    return SimpleNamespace(
        DiGraph=tracer.wrap("acceptance.nx", DiGraph),
        strongly_connected_components=strongly_connected_components,
    )


def _after(tracer: Tracer, span_name: str):
    if span_name == "monitor.step":
        return lambda configuration: tracer.observe(
            "obligations", sum(len(conjunct) for conjunct in configuration.dnf.conjuncts)
        )
    if span_name == "automaton.build":
        return lambda automaton: tracer.observe("states", len(automaton.states))
    return None


def _counting_requests(tracer: Tracer, fn):
    """The CLI parses message i just before stepping it: number requests there."""

    def counted(*args, **kwargs):
        tracer.current_request += 1
        return fn(*args, **kwargs)

    return counted


@contextmanager
def installed(tracer: Tracer):
    """Wrap every patch target that exists, restoring the originals on exit."""
    saved = []
    try:
        for target, attribute, span_name in PATCHES:
            original = target.__dict__.get(attribute)
            if original is None:
                continue
            saved.append((target, attribute, original))
            wrapped = tracer.wrap(span_name, original, _after(tracer, span_name))
            if span_name == "events.parse_message":
                wrapped = _counting_requests(tracer, wrapped)
            setattr(target, attribute, wrapped)
        real_nx = foltl.acceptance.__dict__.get("nx")
        if real_nx is not None:
            saved.append((foltl.acceptance, "nx", real_nx))
            foltl.acceptance.nx = _traced_networkx(tracer, real_nx)
        yield tracer
    finally:
        for target, attribute, original in reversed(saved):
            setattr(target, attribute, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_UNITS metric except trace.slowdown, which needs an untraced pass."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def per_call_us(name):
        return inclusive(name) / calls(name) * 1e6 if calls(name) else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def mean(key):
        values = tracer.samples.get(key, [])
        return sum(values) / len(values) if values else 0.0

    def peak(key):
        return max(tracer.samples.get(key, [0]))

    def total(key):
        return sum(tracer.samples.get(key, []))

    steps = calls("monitor.step")
    cases = calls("acceptance.lasso_accepts")
    return {
        "formula.parse.us": per_call_us("formula.parse"),
        "formula.to_nnf.us": per_call_us("formula.to_nnf"),
        "automaton.build.us": per_call_us("automaton.build"),
        "automaton.states.mean": mean("states"),
        "automaton.delta.calls": calls("automaton.delta"),
        "automaton.delta.self_s": self_s("automaton.delta"),
        "automaton.to_dnf.calls": calls("automaton.to_dnf"),
        "automaton.to_dnf.self_s": self_s("automaton.to_dnf"),
        "automaton.dnf_and.calls": calls("automaton.dnf_and"),
        "automaton.dnf_and.self_s": self_s("automaton.dnf_and"),
        "automaton.dnf_or.self_s": self_s("automaton.dnf_or"),
        "events.parse_message.calls": calls("events.parse_message"),
        "events.parse_message.self_s": self_s("events.parse_message"),
        "events.dom.calls": calls("events.dom"),
        "events.dom.self_s": self_s("events.dom"),
        "monitor.step.calls": steps,
        "monitor.step.self_s": self_s("monitor.step"),
        "monitor.step.mean_us": per_call_us("monitor.step"),
        "monitor.delta_per_step": ratio(calls("automaton.delta"), steps),
        "monitor.obligations.peak": peak("obligations"),
        "monitor.obligations.mean": mean("obligations"),
        "acceptance.lasso_accepts.calls": cases,
        "acceptance.lasso_accepts.self_s": self_s("acceptance.lasso_accepts"),
        "acceptance.nx.self_s": self_s("acceptance.nx"),
        "acceptance.product.nodes.sum": total("product.nodes"),
        "acceptance.product.nodes.max": peak("product.nodes"),
        "acceptance.product.edges.sum": total("product.edges"),
        "acceptance.delta_per_case": ratio(calls("automaton.delta"), cases),
        "acceptance.oracle.self_s": self_s("acceptance.oracle"),
        "acceptance.oracle.iterations": total("oracle.iterations"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.spans": len(tracer.start),
    }
