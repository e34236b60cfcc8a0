"""Spawn-safety + equivalence suite for the multiprocess serving tier.

``run_batch`` under ``ExecutionConfig(workers=N)`` must be a pure
throughput change: answers identical to the serial session (which is
itself identical to looped one-shot calls — the existing batch
equivalence suite), input order preserved, per-query configs honoured
across the toggle grid, and the parent's published stats identical to
what serial execution would have published (no double-counting when
worker stats fold back in).
"""

import logging
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, use_metrics
from repro.ranking.relevance import CardinalityRelevance
from repro.session import (
    ExecutionConfig,
    MatchSession,
    QuerySpec,
    WorkerPool,
    worker_config,
)
from repro.session.parallel import spec_is_poolable
from repro.errors import MatchingError

from tests.conftest import make_random_graph, rich_random_graph
from tests.session.test_batch_equivalence import (
    TOGGLE_GRID,
    assert_same,
    mixed_batch,
    one_shot,
)


SETTINGS = settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _pin(specs, config):
    return [
        QuerySpec(
            pattern=s.pattern, k=s.k, mode=s.mode, lam=s.lam,
            method=s.method, config=config,
        )
        for s in specs
    ]


@given(seed=st.integers(0, 10_000))
@SETTINGS
def test_pooled_equals_serial_equals_one_shot_across_toggle_grid(seed):
    """One 2-worker pool serves the full toggle grid, pinned per query."""
    graph = rich_random_graph(seed)
    specs = mixed_batch(seed)
    with MatchSession(graph, config=ExecutionConfig(workers=2)) as pooled:
        for config in TOGGLE_GRID:
            pinned = _pin(specs, config)
            pooled_results = pooled.run_batch(pinned)
            with MatchSession(graph, config=config) as serial:
                serial_results = serial.run_batch(_pin(specs, config))
            for spec, got, want in zip(specs, pooled_results, serial_results):
                assert_same(got, want)
                assert_same(got, one_shot(spec, graph, config))


def test_no_double_counting_in_published_stats():
    """The pooled registry sees exactly the serial registry's runs."""
    graph = make_random_graph(5, num_nodes=16, num_edges=30)
    specs = mixed_batch(5)

    serial_registry = MetricsRegistry()
    with use_metrics(serial_registry):
        with MatchSession(graph) as s:
            serial_results = s.run_batch(specs)

    pooled_registry = MetricsRegistry()
    with use_metrics(pooled_registry):
        cfg = ExecutionConfig(workers=2)
        with MatchSession(graph, config=cfg) as s:
            pooled_results = s.run_batch(specs)
            pooled_stats = s.stats

    for got, want in zip(pooled_results, serial_results):
        assert_same(got, want)

    runs = "repro_engine_runs_total"
    serial_runs = serial_registry.get(runs)
    pooled_runs = pooled_registry.get(runs)
    assert serial_runs is not None and pooled_runs is not None

    def flat(metric):
        return sorted(
            (tuple(sorted(labels.items())), value)
            for labels, value in metric.samples()
        )

    assert flat(serial_runs) == flat(pooled_runs)

    # The worker series account for every shipped query, exactly once.
    shipped = sum(
        value
        for _, value in pooled_registry.get(
            "repro_worker_queries_total"
        ).samples()
    )
    assert shipped == pooled_stats.queries_executed + pooled_stats.results_reused


def _engine_samples(registry):
    """``repro_engine_*`` samples; a histogram contributes its count."""
    samples = {}
    for name in registry.names():
        if name.startswith("repro_engine_"):
            for labels, value in registry.get(name).samples():
                if isinstance(value, dict):  # elapsed times differ per run
                    value = value["count"]
                samples[name, tuple(sorted(labels.items()))] = value
    return samples


def test_worker_result_store_hits_publish_nothing(caplog):
    """A spec a worker serves from its own result store is published
    once, as a serial result-store hit is: registry samples and
    slow-query records equal the serial session's."""
    graph = make_random_graph(5, num_nodes=16, num_edges=30)
    pattern = mixed_batch(5)[0].pattern
    batch = [
        QuerySpec(pattern, k=3),
        QuerySpec(pattern, k=3),
        QuerySpec(pattern, k=3, mode="baseline"),
    ]
    seen = []
    for workers in (0, 2):
        registry = MetricsRegistry()
        cfg = ExecutionConfig(workers=workers, slow_query_seconds=1e-9)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            with use_metrics(registry), MatchSession(graph, config=cfg) as s:
                results = s.run_batch(batch)
                counts = (s.stats.queries_executed, s.stats.results_reused)
        records = [r for r in caplog.records if r.name == "repro.slowquery"]
        seen.append((results, _engine_samples(registry), len(records), counts))

    (serial, serial_samples, serial_logged, serial_counts), pooled = seen
    for got, want in zip(pooled[0], serial):
        assert_same(got, want)
    assert serial_counts == pooled[3] == (2, 1)
    assert serial_logged == pooled[2] == 2
    assert sum(
        value for (name, _), value in serial_samples.items()
        if name == "repro_engine_runs_total"
    ) == 2
    assert pooled[1] == serial_samples


def test_custom_relevance_fn_falls_back_to_parent():
    graph = make_random_graph(9, num_nodes=14, num_edges=26)
    specs = mixed_batch(9)
    # A lambda is unpicklable AND a custom relevance fn — both reasons
    # keep this query in the parent; the rest of the batch still pools.
    unpoolable = QuerySpec(
        specs[0].pattern, k=2,
        relevance_fn=CardinalityRelevance(),
    )
    assert not spec_is_poolable(unpoolable)
    batch = [unpoolable, *specs]
    with MatchSession(graph, config=ExecutionConfig(workers=2)) as pooled:
        pooled_results = pooled.run_batch(batch)
    with MatchSession(graph) as serial:
        serial_results = serial.run_batch(batch)
    for got, want in zip(pooled_results, serial_results):
        assert_same(got, want)


def test_pool_survives_batches_and_refresh_rebuilds_it():
    rng = random.Random(13)
    graph = make_random_graph(13, num_nodes=16, num_edges=30)
    specs = mixed_batch(13)
    with MatchSession(
        graph, config=ExecutionConfig(workers=2), on_mutation="refresh"
    ) as session:
        session.run_batch(specs)
        first_pool = session._pool
        session.run_batch(specs)
        assert session._pool is first_pool  # reused across batches

        graph.add_node(rng.choice("ABC"))
        graph.add_edge(graph.num_nodes - 1, rng.randrange(graph.num_nodes - 1))
        results = session.run_batch(specs)  # refresh policy recompiles
        assert session._pool is not first_pool  # stale copy dropped
        with MatchSession(graph) as serial:
            for got, want in zip(results, serial.run_batch(specs)):
                assert_same(got, want)


def test_workers_zero_and_one_stay_serial():
    graph = make_random_graph(21, num_nodes=12, num_edges=20)
    specs = mixed_batch(21)
    for workers in (0, 1):
        with MatchSession(
            graph, config=ExecutionConfig(workers=workers)
        ) as session:
            session.run_batch(specs)
            assert session._pool is None


def test_worker_config_strips_serving_knobs():
    cfg = ExecutionConfig(
        workers=4, slow_query_seconds=0.5,
        optimized=False, seed=7, snapshot_patching=True,
    )
    stripped = worker_config(cfg)
    assert stripped.workers == 0
    assert stripped.slow_query_seconds is None
    # Engine toggles survive — answers must not change.
    assert not stripped.optimized and stripped.seed == 7
    assert stripped.snapshot_patching


def test_worker_pool_validation_and_close():
    graph = make_random_graph(2, num_nodes=8, num_edges=12)
    with pytest.raises(MatchingError):
        WorkerPool(graph, ExecutionConfig(), workers=1)
    pool = WorkerPool(graph, ExecutionConfig(), workers=2)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(MatchingError):
        pool.run([(0, QuerySpec(mixed_batch(2)[0].pattern, k=1))])


def test_execution_config_validates_parallel_fields():
    with pytest.raises(MatchingError):
        ExecutionConfig(workers=-1)
