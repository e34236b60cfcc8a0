"""Threaded regression tests for state shared between concurrent callers.

A barrier lines the threads up on the shared call, so the *real*
interleaving runs.  Two shapes are pinned:

* an unguarded check-then-set on a shared cache — the shape the
  lock-discipline rule (R8) flags statically — shows as more than one
  constructed instance (a leaked pool);
* a buffer shared through the graph's cached snapshot, which every
  session and one-shot call on that graph reads, shows as a result that
  differs from the same call made serially.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.graph import csr
from repro.session import ExecutionConfig, MatchSession
from repro.simulation.match import maximal_simulation

from tests.conftest import make_random_graph, make_random_pattern

THREADS = 8
#: Threads and calls per thread for the snapshot-sharing tests, sized
#: with the 24k-edge graph below so that a buffer shared by concurrent
#: scans gives wrong results in every run.
SCAN_THREADS = 4
SCAN_CALLS = 300
FIXPOINT_CALLS = 60
#: Bound on each barrier wait and thread join.
JOIN_SECONDS = 120.0


def _hammer(worker, threads: int = THREADS) -> list:
    """Run ``worker(slot)`` on barrier-aligned threads; return results.

    A short switch interval makes the interpreter lock change hands
    often, so the interleavings a race needs come up in every run.
    """
    barrier = threading.Barrier(threads, timeout=JOIN_SECONDS)
    results: list = [None] * threads
    errors: list[BaseException] = []

    def call(slot: int) -> None:
        try:
            barrier.wait()
            results[slot] = worker(slot)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [
        threading.Thread(target=call, args=(slot,)) for slot in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(JOIN_SECONDS)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert not errors
    return results


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
        pools = _hammer(lambda _slot: session._worker_pool(cfg))
        assert len(constructed) == 1
        assert all(pool is pools[0] for pool in pools)
        session._drop_pool()


def _large_graph(seed: int):
    return make_random_graph(seed, num_nodes=3000, num_edges=24_000, labels="ABCD")


def _patched_snapshot(graph):
    """An overlay-form snapshot of ``graph`` after a few edge changes."""
    base = csr.CSRSnapshot.build(graph)
    ops: list = []
    unsubscribe = graph.add_listener(ops.append)
    edges = list(graph.edges())
    for edge in edges[:20]:
        graph.remove_edge(*edge)
    for edge in edges[:5]:
        graph.add_edge(*edge)
    unsubscribe()
    return csr.PatchedCSRSnapshot.patch(base, ops, graph)


@pytest.mark.parametrize("patched", [False, True], ids=["flat", "patched"])
def test_concurrent_counting_scans_equal_serial(patched):
    graph = _large_graph(5)
    snap = _patched_snapshot(graph) if patched else graph.snapshot()
    rng = np.random.default_rng(0)
    memberships = [
        (rng.random(snap.num_nodes) < 0.2 * (slot + 1)).astype(np.uint8)
        for slot in range(SCAN_THREADS)
    ]
    expected = [(snap.out_counts(m), snap.in_counts(m)) for m in memberships]

    def scan(slot: int) -> int:
        membership = memberships[slot]
        want_out, want_in = expected[slot]
        wrong = 0
        for _ in range(SCAN_CALLS):
            wrong += not np.array_equal(snap.out_counts(membership), want_out)
            wrong += not np.array_equal(snap.in_counts(membership), want_in)
        return wrong

    assert _hammer(scan, SCAN_THREADS) == [0] * SCAN_THREADS


def test_concurrent_fixpoints_on_one_graph_equal_serial():
    graph = _large_graph(9).freeze()
    graph.snapshot()  # the cached snapshot every call below shares
    patterns = [
        make_random_pattern(seed, num_nodes=4, extra_edges=2, labels="ABCD", cyclic=True)
        for seed in range(SCAN_THREADS)
    ]
    expected = [maximal_simulation(pattern, graph).sim for pattern in patterns]
    assert all(any(rows) for rows in expected)

    def solve(slot: int) -> int:
        pattern = patterns[slot]
        return sum(
            maximal_simulation(pattern, graph).sim != expected[slot]
            for _ in range(FIXPOINT_CALLS)
        )

    assert _hammer(solve, SCAN_THREADS) == [0] * SCAN_THREADS
