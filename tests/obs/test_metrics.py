"""MetricsRegistry: label sets, exporters, kind safety, ambience."""

from __future__ import annotations

import json

import pytest

from repro.errors import MatchingError
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    current_metrics,
    publish_engine_stats,
    use_metrics,
)
from repro.topk.result import EngineStats


class TestCounter:
    def test_label_sets_are_independent_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_runs_total", "runs")
        counter.inc(1, algorithm="TopK")
        counter.inc(2, algorithm="Match")
        counter.inc(1, algorithm="TopK")
        assert registry.value("repro_runs_total", algorithm="TopK") == 2.0
        assert registry.value("repro_runs_total", algorithm="Match") == 2.0
        assert registry.value("repro_runs_total", algorithm="absent") == 0.0

    def test_label_order_does_not_matter(self):
        counter = Counter("c", "")
        counter.inc(1, a="x", b="y")
        assert counter.value(b="y", a="x") == 1.0

    def test_negative_increment_raises(self):
        counter = Counter("c", "")
        with pytest.raises(MatchingError, match="cannot decrease"):
            counter.inc(-1)

    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", "first registered as counter")
        with pytest.raises(MatchingError, match="already registered"):
            registry.histogram("m")


class TestHistogram:
    def test_buckets_are_cumulative(self):
        histogram = Histogram("h", "", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        assert snap["buckets"] == {"0.1": 1, "1": 3, "10": 4}

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(MatchingError, match="ascending"):
            Histogram("h", "", buckets=(1.0, 0.1))

    def test_unknown_series_snapshot_is_empty(self):
        histogram = Histogram("h", "")
        assert histogram.snapshot(kind="absent") == {
            "count": 0,
            "sum": 0.0,
            "buckets": {},
        }

    def test_registry_value_of_a_histogram_is_zero(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        assert registry.value("h") == 0.0


class TestPrometheusExporter:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", "runs observed").inc(3, algorithm="TopK")
        text = registry.render_prometheus()
        assert "# HELP repro_runs_total runs observed\n" in text
        assert "# TYPE repro_runs_total counter\n" in text
        assert 'repro_runs_total{algorithm="TopK"} 3\n' in text

    def test_histogram_exposition_has_inf_sum_and_count(self):
        registry = MetricsRegistry()
        registry.histogram("repro_seconds", "latency", buckets=(0.1, 1.0)).observe(
            0.5, kind="edge"
        )
        lines = registry.render_prometheus().splitlines()
        assert 'repro_seconds_bucket{kind="edge",le="0.1"} 0' in lines
        assert 'repro_seconds_bucket{kind="edge",le="1"} 1' in lines
        assert 'repro_seconds_bucket{kind="edge",le="+Inf"} 1' in lines
        assert 'repro_seconds_sum{kind="edge"} 0.5' in lines
        assert 'repro_seconds_count{kind="edge"} 1' in lines

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestJsonExporter:
    def test_dump_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c", "counts").inc(2, mode="topk")
        registry.histogram("h", "times", buckets=(1.0,)).observe(0.5)
        payload = json.loads(registry.dump_json())
        assert payload["c"]["type"] == "counter"
        assert payload["c"]["samples"] == [
            {"labels": {"mode": "topk"}, "value": 2.0}
        ]
        assert payload["h"]["samples"][0]["count"] == 1

    def test_names_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        assert registry.names() == ["a", "z"]


class TestAmbientSurface:
    def test_nothing_installed_by_default(self):
        assert current_metrics() is None

    def test_use_metrics_installs_and_restores(self):
        registry = MetricsRegistry()
        with use_metrics(registry) as installed:
            assert installed is registry
            assert current_metrics() is registry
        assert current_metrics() is None

    def test_nested_install_shadows_then_restores(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_metrics(outer):
            with use_metrics(inner):
                assert current_metrics() is inner
            assert current_metrics() is outer


class TestPublishEngineStats:
    def test_publishes_run_counters_and_elapsed(self):
        registry = MetricsRegistry()
        stats = EngineStats(
            batches=4,
            inspected_matches=7,
            deltas_applied=12,
            terminated_early=True,
            elapsed_seconds=0.25,
        )
        publish_engine_stats(registry, stats, "TopK")
        assert registry.value("repro_engine_runs_total", algorithm="TopK") == 1.0
        assert registry.value("repro_engine_batches_total", algorithm="TopK") == 4.0
        assert (
            registry.value("repro_engine_deltas_applied_total", algorithm="TopK")
            == 12.0
        )
        assert (
            registry.value("repro_engine_terminated_early_total", algorithm="TopK")
            == 1.0
        )
        elapsed = registry.get("repro_engine_elapsed_seconds")
        assert elapsed.snapshot(algorithm="TopK")["count"] == 1

    def test_zero_counters_create_no_series(self):
        registry = MetricsRegistry()
        publish_engine_stats(registry, EngineStats(), "Match")
        assert "repro_engine_batches_total" not in registry.names()
        assert "repro_engine_terminated_early_total" not in registry.names()
        assert registry.value("repro_engine_runs_total", algorithm="Match") == 1.0


class TestThreadSafety:
    """Regression coverage for the serving-pool merge path.

    The parent folds worker results back into ambient metrics from the
    batch epilogue while other sessions may be publishing concurrently;
    every read-modify-write on a series and every get-or-create in the
    registry must be atomic or increments are silently lost.
    """

    THREADS = 8
    ITERATIONS = 400

    def _hammer(self, fn):
        import threading

        start = threading.Barrier(self.THREADS)

        def worker():
            start.wait()
            for _ in range(self.ITERATIONS):
                fn()

        threads = [
            threading.Thread(target=worker) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_concurrent_counter_increments_are_not_lost(self):
        counter = Counter("repro_worker_queries_total", "")
        self._hammer(lambda: counter.inc(1, worker="0"))
        assert counter.value(worker="0") == self.THREADS * self.ITERATIONS

    def test_concurrent_histogram_observations_are_not_lost(self):
        histogram = Histogram("repro_worker_dispatch_seconds", "")
        self._hammer(lambda: histogram.observe(0.25))
        snap = histogram.snapshot()
        assert snap["count"] == self.THREADS * self.ITERATIONS
        assert snap["sum"] == pytest.approx(
            0.25 * self.THREADS * self.ITERATIONS
        )

    def test_concurrent_get_or_create_yields_one_metric(self):
        registry = MetricsRegistry()
        seen = []

        def create_and_bump():
            counter = registry.counter("repro_races_total", "")
            seen.append(counter)
            counter.inc(1)

        self._hammer(create_and_bump)
        assert len(set(map(id, seen))) == 1
        assert registry.value("repro_races_total") == (
            self.THREADS * self.ITERATIONS
        )
