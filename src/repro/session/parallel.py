"""``WorkerPool`` — multiprocess batch serving for :class:`MatchSession`.

:meth:`MatchSession.run_batch` groups a batch by pattern structure so
each group's artifacts are computed once; with
``ExecutionConfig(workers=N)`` those *groups* additionally fan out
across ``N`` worker processes.  The contract mirrors the session's:

* each worker receives the pickled graph + a stripped
  :class:`ExecutionConfig` exactly **once**, at pool initialisation
  (spawn-safe: a module-level initializer, never per-query state);
* every worker owns a private :class:`MatchSession` over its copy, so
  in-worker queries share candidates/simulation/bounds per structure
  group exactly like the serial path;
* whole structure groups are assigned to workers (largest group first,
  least-loaded worker next), never split — splitting would recompute a
  group's artifacts in two processes;
* answers come back with their input indices and the parent restores
  input order; results are identical to the serial session because
  workers execute through the same ``MatchSession._execute``;
* workers run with tracing/metrics/slow-logging stripped
  (:func:`worker_config`) and report a per-batch
  :class:`WorkerBatchStats` delta instead — the parent republishes each
  result's :class:`EngineStats` into *its* ambient registry exactly
  once, so nothing is double-counted.

Queries carrying a custom relevance function or diversification
objective (opaque, possibly stateful — and often unpicklable) always
execute in the parent; the pooled path only ever ships declarative
specs.

**Pool survival across selective refreshes.**  Under
``ExecutionConfig(snapshot_patching=True)`` the parent session keeps
its pool across a refresh instead of re-pickling the whole graph: it
accumulates the mutation ops into a pool-lifetime *delta log* and every
dispatch ships the full log alongside the tasks.  Each worker tracks
how many log entries it has already applied (a module global, reset
with the process) and replays only the unseen suffix through
``Graph.apply_delta`` — idempotent across dispatches, and correct for
workers that sat out intermediate dispatches because the log is always
shipped whole.  Replay asserts that re-assigned node ids match the
parent's (the worker graph is a faithful copy, so they must), then the
worker session refreshes — selectively, since its config carries the
same toggle.  A log that grows past :data:`POOL_OPS_CAP` or contains
an unpicklable op falls back to the historical drop-and-rebuild.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import MatchingError
from repro.session.cache import pattern_structure_key
from repro.session.config import ExecutionConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.delta import DeltaOp
    from repro.graph.digraph import Graph
    from repro.session.session import MatchSession, QuerySpec

#: Pool-lifetime delta-log cap.  Past this many accumulated ops a
#: refresh stops extending the log and lets the pool rebuild from a
#: fresh graph pickle instead — shipping an ever-growing log with every
#: dispatch would eventually cost more than the pickle it avoids.
POOL_OPS_CAP = 4096


def worker_config(config: ExecutionConfig) -> ExecutionConfig:
    """The :class:`ExecutionConfig` a pool worker executes under.

    Identical engine toggles (so answers are identical), with the
    serving/observability knobs stripped: ``workers=0`` (a worker never
    re-fans out), tracing/metrics off (the parent republishes stats into
    its own ambient collectors), and the slow-query threshold pinned to
    ``+inf`` rather than ``None`` — ``None`` would fall back to the
    ``REPRO_SLOW_QUERY_SECONDS`` environment default inside the worker
    and double-log every slow query.
    """
    return replace(
        config,
        workers=0,
        trace=False,
        metrics=False,
        slow_query_seconds=math.inf,
    )


@dataclass
class WorkerBatchStats:
    """One worker's per-dispatch serving counters (a delta, not a
    running total — worker sessions persist across batches)."""

    worker: int
    queries: int
    queries_executed: int
    results_reused: int
    elapsed_seconds: float


# ----------------------------------------------------------------------
# worker-process side (module import + initializer: spawn-safe)
# ----------------------------------------------------------------------
_WORKER_SESSION: "MatchSession | None" = None
#: How many entries of the parent's pool-lifetime delta log this worker
#: process has already replayed into its graph copy.
_WORKER_APPLIED = 0


def _pool_worker_init(payload: bytes) -> None:
    """Process initializer: build the worker's session exactly once."""
    global _WORKER_SESSION, _WORKER_APPLIED
    from repro.session.session import MatchSession

    graph, config, reuse_results = pickle.loads(payload)
    _WORKER_SESSION = MatchSession(
        graph, config=config, reuse_results=reuse_results
    )
    _WORKER_APPLIED = 0


def _pool_worker_run(
    tasks: "Sequence[tuple[int, QuerySpec]]",
    ops_log: "Sequence[DeltaOp]" = (),
) -> "tuple[list[tuple[int, Any]], dict[str, float]]":
    """Execute one dispatch's specs through the worker's session.

    ``ops_log`` is the parent pool's full lifetime delta log; the
    unseen suffix is replayed into the worker's graph copy first (see
    the module docstring), so the worker answers against the exact
    graph state the parent dispatched from.
    """
    global _WORKER_APPLIED
    session = _WORKER_SESSION
    if session is None:  # pragma: no cover - initializer always ran
        raise MatchingError("pool worker used before initialisation")
    if len(ops_log) < _WORKER_APPLIED:  # pragma: no cover - parent resets pools
        raise MatchingError("pool delta log regressed; worker out of sync")
    fresh_ops = list(ops_log[_WORKER_APPLIED:])
    if fresh_ops:
        assigned = session.graph.apply_delta(fresh_ops)
        for op, node in zip(fresh_ops, assigned):
            if node is not None and node != op.node:  # pragma: no cover
                raise MatchingError(
                    "worker graph diverged during delta replay: "
                    f"expected node {op.node}, assigned {node}"
                )
        _WORKER_APPLIED = len(ops_log)
        session.refresh()
    start = time.perf_counter()
    before_executed = session.stats.queries_executed
    before_reused = session.stats.results_reused
    results: "list[tuple[int, Any]]" = [
        (index, session._execute(spec)) for index, spec in tasks
    ]
    stats = {
        "queries_executed": float(
            session.stats.queries_executed - before_executed
        ),
        "results_reused": float(session.stats.results_reused - before_reused),
        "elapsed_seconds": time.perf_counter() - start,
    }
    return results, stats


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class WorkerPool:
    """``N`` spawned worker processes, each holding one session.

    Parameters
    ----------
    graph:
        The pinned graph; pickled to every worker once.
    config:
        The parent session's config; workers receive its
        :func:`worker_config` stripping.
    workers:
        Process count (≥ 2 — a 1-worker pool is strictly worse than the
        serial path, so the session never builds one).
    reuse_results:
        Forwarded to the worker sessions, so in-batch duplicate specs
        are served from the worker's result store like serial.
    """

    def __init__(
        self,
        graph: "Graph",
        config: ExecutionConfig,
        workers: int,
        reuse_results: bool = True,
    ) -> None:
        if workers < 2:
            raise MatchingError(
                f"a worker pool needs at least 2 workers; got {workers}"
            )
        self.workers = workers
        self.config = worker_config(config)
        payload = pickle.dumps(
            (graph, self.config, reuse_results),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_pool_worker_init,
            initargs=(payload,),
        )
        self._closed = False

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: "Sequence[tuple[int, QuerySpec]]",
        ops_log: "Sequence[DeltaOp]" = (),
    ) -> "tuple[list[tuple[int, Any]], list[WorkerBatchStats]]":
        """Run ``(index, spec)`` tasks across the pool.

        Tasks are grouped by pattern structure signature and whole
        groups are packed onto workers greedily (largest first onto the
        least-loaded worker).  Returns every ``(index, result)`` pair
        (unordered — the caller restores input order by index) plus one
        :class:`WorkerBatchStats` per worker that received work.
        ``ops_log`` — the pool-lifetime delta log under a
        selectively-refreshing session — ships whole with every
        dispatch; each worker replays only its unseen suffix.
        """
        if self._closed:
            raise MatchingError("worker pool is closed")
        groups: "dict[Any, list[tuple[int, QuerySpec]]]" = {}
        for index, spec in tasks:
            shipped = spec
            if spec.config is not None:
                shipped = replace(spec, config=worker_config(spec.config))
            signature = pattern_structure_key(spec.pattern)
            groups.setdefault(signature, []).append((index, shipped))

        buckets: "list[list[tuple[int, QuerySpec]]]" = [
            [] for _ in range(min(self.workers, len(groups)))
        ]
        loads = [0] * len(buckets)
        for group in sorted(groups.values(), key=len, reverse=True):
            target = loads.index(min(loads))
            buckets[target].extend(group)
            loads[target] += len(group)

        shipped_ops = tuple(ops_log)
        futures: "list[tuple[int, int, Future[Any]]]" = [
            (
                worker,
                len(bucket),
                self._executor.submit(_pool_worker_run, bucket, shipped_ops),
            )
            for worker, bucket in enumerate(buckets)
            if bucket
        ]
        results: "list[tuple[int, Any]]" = []
        stats: "list[WorkerBatchStats]" = []
        for worker, count, future in futures:
            worker_results, worker_stats = future.result()
            results.extend(worker_results)
            stats.append(
                WorkerBatchStats(
                    worker=worker,
                    queries=count,
                    queries_executed=int(worker_stats["queries_executed"]),
                    results_reused=int(worker_stats["results_reused"]),
                    elapsed_seconds=worker_stats["elapsed_seconds"],
                )
            )
        return results, stats

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def spec_is_poolable(spec: "QuerySpec") -> bool:
    """True when ``spec`` may ship to a worker process.

    Custom relevance functions and objectives stay in the parent (their
    object identity/state is part of the serial contract), and anything
    that fails to pickle — e.g. a pattern predicate closure — falls
    back to parent execution rather than failing the batch.
    """
    if spec.relevance_fn is not None or spec.objective is not None:
        return False
    try:
        pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True
