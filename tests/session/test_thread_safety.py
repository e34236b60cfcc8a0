"""Threaded regression tests for the R8-class get-or-create races.

Both caches fixed in this PR had the same shape the lock-discipline
rule (R8) now flags statically: an unguarded check-then-set on shared
state reachable from concurrent callers.  These tests drive the *real*
interleaving — a barrier lines N threads up on the lookup, and any
regression shows up as more than one constructed instance (a leaked
pool) or torn cache state.
"""

from __future__ import annotations

import threading

from repro.session import ExecutionConfig, MatchSession

from tests.conftest import make_random_graph

THREADS = 8


def _hammer(worker) -> list:
    """Run ``worker`` on THREADS barrier-aligned threads; return results."""
    barrier = threading.Barrier(THREADS)
    results: list = [None] * THREADS
    errors: list[BaseException] = []

    def call(slot: int) -> None:
        try:
            barrier.wait()
            results[slot] = worker()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=call, args=(slot,)) for slot in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    return results


def test_concurrent_shard_runner_lookup_builds_one_runner(monkeypatch):
    import repro.parallel.shards as shards

    constructed: list[object] = []
    real_runner = shards.ShardRunner

    class CountingRunner(real_runner):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            constructed.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(shards, "ShardRunner", CountingRunner)

    graph = make_random_graph(7, num_nodes=30, num_edges=60)
    snap = graph.snapshot()
    runners = _hammer(lambda: shards.shard_runner(snap, 3, backend="thread"))

    assert len(constructed) == 1
    assert all(runner is runners[0] for runner in runners)


def test_concurrent_worker_pool_lookup_builds_one_pool(monkeypatch):
    import repro.session.parallel as parallel

    constructed: list[object] = []

    class FakePool:
        def __init__(self, graph, cfg, workers, reuse_results=False):
            constructed.append(self)

        def close(self) -> None:
            pass

    monkeypatch.setattr(parallel, "WorkerPool", FakePool)

    graph = make_random_graph(11, num_nodes=20, num_edges=40)
    cfg = ExecutionConfig(workers=2)
    with MatchSession(graph) as session:
        pools = _hammer(lambda: session._worker_pool(cfg))
        assert len(constructed) == 1
        assert all(pool is pools[0] for pool in pools)
        session._drop_pool()
