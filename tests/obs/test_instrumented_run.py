"""End-to-end: real runs reconcile spans, metrics and EngineStats."""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    default_metrics,
    default_tracer,
    instrumentation,
    load_jsonl,
    reset_defaults,
    use_metrics,
    use_tracer,
)
from repro.session import MatchSession, QuerySpec
from repro.session.config import ExecutionConfig
from repro.topk.cyclic import top_k


@pytest.fixture()
def clean_defaults():
    reset_defaults()
    yield
    reset_defaults()


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


class TestConfigDrivenInstrumentation:
    def test_flags_off_is_a_shared_noop(self):
        cm = instrumentation(ExecutionConfig())
        assert cm is instrumentation(None)

    def test_config_installs_process_defaults(self, fig1, clean_defaults):
        config = ExecutionConfig(trace=True, metrics=True)
        result = top_k(fig1.pattern, fig1.graph, 2, config=config)
        tracer = default_tracer()
        registry = default_metrics()
        assert any(s.name == "engine.run" for s in tracer.spans)
        assert registry.value("repro_engine_runs_total", algorithm="TopK") == 1.0
        assert result.matches  # instrumentation never perturbs the answer

    def test_ambient_collectors_are_never_shadowed(self, fig1, clean_defaults):
        explicit = MetricsRegistry()
        config = ExecutionConfig(metrics=True)
        with use_metrics(explicit):
            top_k(fig1.pattern, fig1.graph, 2, config=config)
        # The explicitly installed registry got the run; the process
        # default was never materialised on top of it.
        assert explicit.value("repro_engine_runs_total", algorithm="TopK") == 1.0
        assert default_metrics().value("repro_engine_runs_total", algorithm="TopK") == 0.0

    def test_traced_and_untraced_answers_agree(self, fig1):
        plain = top_k(fig1.pattern, fig1.graph, 2)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            traced = top_k(fig1.pattern, fig1.graph, 2)
        assert plain.matches == traced.matches
        assert plain.scores == traced.scores
