"""Regression: the visit loop is trace-free when tracing is disabled.

Each ``trace()`` call costs a contextvar read plus a kwargs dict even
with tracing off, so the engine opens its spans around phases, never
per visited match: the number of ``trace()`` calls per run is a
constant, independent of how many matches the run visits.
"""

from __future__ import annotations

import repro.topk.engine as engine_mod
from repro.graph.digraph import Graph
from repro.obs import Tracer, use_tracer
from repro.patterns.pattern import pattern_from_edges
from repro.topk.dag import top_k_dag


def _count_trace_calls(monkeypatch):
    calls: list[str] = []
    real_trace = engine_mod.trace

    def counting(name, **attrs):
        calls.append(name)
        return real_trace(name, **attrs)

    monkeypatch.setattr(engine_mod, "trace", counting)
    return calls


def _staircase(n: int):
    """``n`` A nodes, the i-th pointing to the first i + 1 of ``n`` B
    nodes: every A matches ``A -> B`` with a distinct relevance."""
    g = Graph()
    bs = [g.add_node("B") for _ in range(n)]
    for i in range(n):
        a = g.add_node("A")
        for b in bs[: i + 1]:
            g.add_edge(a, b)
    return g, pattern_from_edges(["A", "B"], [(0, 1)], 0)


class TestDisabledTracingCost:
    def test_trace_calls_do_not_scale_with_visits(self, monkeypatch):
        calls = _count_trace_calls(monkeypatch)
        graph, pattern = _staircase(30)

        few = top_k_dag(pattern, graph, 1)
        few_run = list(calls)
        calls.clear()
        many = top_k_dag(pattern, graph, 30)
        many_run = list(calls)

        assert few.stats.inspected_matches < many.stats.inspected_matches == 30
        # Same hooks either way: phase spans only, nothing per visit.
        assert few_run == many_run

    def test_enabled_tracing_spans_the_run_once(self):
        graph, pattern = _staircase(30)
        tracer = Tracer()
        with use_tracer(tracer):
            result = top_k_dag(pattern, graph, 30)
        runs = [s for s in tracer.spans if s.name == "engine.run"]
        assert len(runs) == 1
        assert runs[0].attrs["inspected_matches"] == result.stats.inspected_matches == 30
