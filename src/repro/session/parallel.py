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
* workers run with no ambient collectors and no slow-query threshold
  (:func:`worker_config`) and report, per task, whether the worker
  executed it or served it from its result store, plus a per-batch
  :class:`WorkerBatchStats` delta — the parent calls
  :func:`repro.obs.record_run` for each executed result, so each
  result's :class:`EngineStats` reaches *its* ambient registry and
  slow-query log exactly once, as in the serial path.

Queries carrying a custom relevance function or diversification
objective (opaque, possibly stateful — and often unpicklable) always
execute in the parent; the pooled path only ever ships declarative
specs.

A pool serves one graph generation: after a refresh the parent session
builds a new pool from a fresh pickle of the mutated graph.
"""

from __future__ import annotations

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
    from repro.graph.digraph import Graph
    from repro.session.session import MatchSession, QuerySpec


def worker_config(config: ExecutionConfig) -> ExecutionConfig:
    """The :class:`ExecutionConfig` a pool worker executes under.

    Identical engine toggles (so answers are identical), with the
    serving knobs stripped: ``workers=0`` (a worker never re-fans out)
    and no slow-query threshold (the parent logs each executed result).
    """
    return replace(config, workers=0, slow_query_seconds=None)


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


def _pool_worker_init(payload: bytes) -> None:
    """Process initializer: build the worker's session exactly once."""
    global _WORKER_SESSION
    from repro.session.session import MatchSession

    graph, config, reuse_results = pickle.loads(payload)
    _WORKER_SESSION = MatchSession(
        graph, config=config, reuse_results=reuse_results
    )


def _pool_worker_run(
    tasks: "Sequence[tuple[int, QuerySpec]]",
) -> "tuple[list[tuple[int, Any, bool]], dict[str, float]]":
    """Execute one dispatch's specs through the worker's session.

    Each result comes back as ``(index, result, executed)``: whether
    the worker ran the query or served it from its result store.
    """
    session = _WORKER_SESSION
    if session is None:  # pragma: no cover - initializer always ran
        raise MatchingError("pool worker used before initialisation")
    start = time.perf_counter()
    before_reused = session.stats.results_reused
    results: "list[tuple[int, Any, bool]]" = []
    executed = 0
    for index, spec in tasks:
        before = session.stats.queries_executed
        result = session._execute(spec)
        ran = session.stats.queries_executed > before
        executed += ran
        results.append((index, result, ran))
    stats = {
        "queries_executed": float(executed),
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
    ) -> "tuple[list[tuple[int, Any, bool]], list[WorkerBatchStats]]":
        """Run ``(index, spec)`` tasks across the pool.

        Tasks are grouped by pattern structure signature and whole
        groups are packed onto workers greedily (largest first onto the
        least-loaded worker).  Returns every ``(index, result,
        executed)`` triple (unordered — the caller restores input order
        by index; ``executed`` is false for a worker result-store hit)
        plus one :class:`WorkerBatchStats` per worker that received
        work.
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

        futures: "list[tuple[int, int, Future[Any]]]" = [
            (
                worker,
                len(bucket),
                self._executor.submit(_pool_worker_run, bucket),
            )
            for worker, bucket in enumerate(buckets)
            if bucket
        ]
        results: "list[tuple[int, Any, bool]]" = []
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
