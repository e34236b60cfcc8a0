"""End-to-end: real runs reconcile spans, metrics and EngineStats."""

from __future__ import annotations

import logging

import pytest

from repro.diversify.approx import top_k_diversified_approx
from repro.diversify.heuristic import top_k_diversified_heuristic
from repro.obs import (
    MetricsRegistry,
    Tracer,
    load_jsonl,
    use_metrics,
    use_tracer,
)
from repro.patterns.pattern import Pattern
from repro.session import MatchSession, QuerySpec
from repro.session.config import ExecutionConfig
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag
from repro.topk.match_all import match_baseline

# (wrapper, pattern fixture, algorithm label of its result): every
# engine wrapper, and both labels of the diversified heuristic.
WRAPPERS = [
    pytest.param(top_k, "fig1", "TopK", id="TopK"),
    pytest.param(top_k_dag, "q1_dag", "TopKDAG", id="TopKDAG"),
    pytest.param(match_baseline, "fig1", "Match", id="Match"),
    pytest.param(top_k_diversified_heuristic, "fig1", "TopKDH", id="TopKDH"),
    pytest.param(top_k_diversified_heuristic, "q1_dag", "TopKDAGDH", id="TopKDAGDH"),
    pytest.param(top_k_diversified_approx, "fig1", "TopKDiv", id="TopKDiv"),
]


def _pattern(which, fig1, q1_dag):
    return fig1.pattern if which == "fig1" else q1_dag


def _slow_query_messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "repro.slowquery"]


class TestTracedEngineRun:
    def test_run_span_reconciles_with_engine_stats(self, fig1):
        tracer = Tracer()
        with use_tracer(tracer):
            result = top_k(fig1.pattern, fig1.graph, 2)
        totals = tracer.phase_totals()
        assert totals["engine.run"]["count"] == 1
        run_span = next(s for s in tracer.spans if s.name == "engine.run")
        assert run_span.attrs["inspected_matches"] == result.stats.inspected_matches
        assert run_span.attrs["terminated_early"] == result.stats.terminated_early

    def test_init_phases_precede_the_run(self, fig1):
        tracer = Tracer()
        with use_tracer(tracer):
            top_k(fig1.pattern, fig1.graph, 2)
        names = [s.name for s in tracer.spans]
        assert names.index("engine.simulation") < names.index("engine.evaluation")
        assert names.index("engine.evaluation") < names.index("engine.run")

    def test_fixpoint_rounds_attr_matches_rounds_counter(self, fig1):
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            top_k(fig1.pattern, fig1.graph, 2)
        fixpoints = [s for s in tracer.spans if s.name == "simulation.fixpoint"]
        assert fixpoints
        for path in {s.attrs["path"] for s in fixpoints}:
            assert registry.value(
                "repro_simulation_fixpoints_total", path=path
            ) == len([s for s in fixpoints if s.attrs["path"] == path])
        csr_rounds = sum(
            s.attrs.get("rounds", 0) for s in fixpoints if s.attrs["path"] == "csr"
        )
        assert registry.value("repro_simulation_rounds_total", path="csr") == csr_rounds

    def test_trace_export_round_trips_through_jsonl(self, fig1, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            top_k(fig1.pattern, fig1.graph, 2)
        path = tmp_path / "run.jsonl"
        count = tracer.export_jsonl(path)
        spans = load_jsonl(path)
        assert len(spans) == count == len(tracer.spans)
        assert {s["name"] for s in spans} >= {"engine.run", "engine.evaluation"}

    def test_disabled_run_records_nothing(self, fig1):
        tracer = Tracer()
        top_k(fig1.pattern, fig1.graph, 2)  # nothing ambient
        assert tracer.spans == []

    def test_traced_and_untraced_answers_agree(self, fig1):
        plain = top_k(fig1.pattern, fig1.graph, 2)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            traced = top_k(fig1.pattern, fig1.graph, 2)
        assert traced.matches  # instrumentation never perturbs the answer
        assert plain.matches == traced.matches
        assert plain.scores == traced.scores


class TestPublishedMetrics:
    def test_engine_counters_match_result_stats(self, fig1):
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = top_k(fig1.pattern, fig1.graph, 2)
        stats = result.stats
        assert registry.value("repro_engine_runs_total", algorithm="TopK") == 1.0
        assert (
            registry.value("repro_engine_pairs_created_total", algorithm="TopK")
            == stats.pairs_created
        )
        assert (
            registry.value("repro_engine_inspected_matches_total", algorithm="TopK")
            == stats.inspected_matches
        )
        elapsed = registry.get("repro_engine_elapsed_seconds")
        assert elapsed.snapshot(algorithm="TopK")["count"] == 1

    def test_session_batch_populates_cache_and_fixpoint_series(self, fig1):
        registry = MetricsRegistry()
        specs = [QuerySpec(fig1.pattern, k=2), QuerySpec(fig1.pattern, k=3)]
        with use_metrics(registry):
            with MatchSession(fig1.graph) as session:
                session.run_batch(specs)
        text = registry.render_prometheus()
        assert "repro_session_cache_total" in text
        assert "repro_simulation_fixpoints_total" in text
        # The second query reuses the first one's pattern artifacts.
        hits = sum(
            value
            for labels, value in registry.get("repro_session_cache_total").samples()
            if labels["outcome"] == "hit"
        )
        assert hits > 0


class TestEveryWrapper:
    """Each wrapper's epilogue reaches the ambient registry and the
    config's slow-query threshold, and nothing else."""

    @pytest.mark.parametrize("wrapper, which, algorithm", WRAPPERS)
    def test_run_is_published_once_to_the_ambient_registry(
        self, wrapper, which, algorithm, fig1, q1_dag
    ):
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = wrapper(_pattern(which, fig1, q1_dag), fig1.graph, 2)
        assert result.algorithm == algorithm
        runs = {
            labels["algorithm"]: value
            for labels, value in registry.get("repro_engine_runs_total").samples()
        }
        assert runs == {algorithm: 1.0}
        assert (
            registry.value("repro_engine_inspected_matches_total", algorithm=algorithm)
            == result.stats.inspected_matches
        )
        elapsed = registry.get("repro_engine_elapsed_seconds")
        assert elapsed.snapshot(algorithm=algorithm)["count"] == 1

    @pytest.mark.parametrize("wrapper, which, algorithm", WRAPPERS)
    def test_config_threshold_logs_the_run_once(
        self, wrapper, which, algorithm, fig1, q1_dag, caplog
    ):
        pattern = _pattern(which, fig1, q1_dag)
        plain = wrapper(pattern, fig1.graph, 2)
        config = ExecutionConfig(slow_query_seconds=1e-9)
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            logged = wrapper(pattern, fig1.graph, 2, config=config)
        messages = _slow_query_messages(caplog)
        assert len(messages) == 1
        assert messages[0].startswith(f"slow query: {algorithm} |Q|=")
        assert " k=2 " in messages[0]
        assert logged.matches == plain.matches  # the log never perturbs the answer

    @pytest.mark.parametrize(
        "wrapper, algorithm",
        [
            pytest.param(match_baseline, "Match", id="Match"),
            pytest.param(top_k_diversified_approx, "TopKDiv", id="TopKDiv"),
        ],
    )
    def test_empty_answer_is_published_and_logged(self, wrapper, algorithm, fig1, caplog):
        # No node of the graph carries the label: the early return runs.
        pattern = Pattern()
        pattern.add_node("NoSuchLabel", output=True)
        registry = MetricsRegistry()
        config = ExecutionConfig(slow_query_seconds=1e-9)
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            with use_metrics(registry):
                result = wrapper(pattern, fig1.graph, 2, config=config)
        assert result.matches == []
        assert result.stats.total_matches == 0
        assert registry.value("repro_engine_runs_total", algorithm=algorithm) == 1.0
        messages = _slow_query_messages(caplog)
        assert len(messages) == 1
        assert messages[0].startswith(f"slow query: {algorithm} |Q|=(1,0) k=2 ")
