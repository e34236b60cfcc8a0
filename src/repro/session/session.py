"""``MatchSession`` — batched multi-query serving over one shared snapshot.

The paper's cost model recomputes the expensive artifacts — the
simulation relation, relevant sets, bound indexes — per query; the CSR
layer made them snapshot-keyed and reusable.  A :class:`MatchSession`
pins one graph (and thereby one compiled snapshot generation) and owns
the cross-query caches of :mod:`repro.session.cache`, so a batch of
queries pays for candidates, simulation and top-k evaluations once per
distinct pattern structure instead of once per query::

    from repro.session import ExecutionConfig, MatchSession, QuerySpec

    with MatchSession(graph) as session:
        handle = session.submit(pattern, k=10)            # lazy
        results = session.run_batch([
            QuerySpec(p1, k=10),
            QuerySpec(p2, k=5, mode="diversified", lam=0.3),
            QuerySpec(p3, k=10, mode="multi"),
        ])
        top = handle.result()

Freshness: the session subscribes to the graph's change events.  A
structural mutation marks the pinned snapshot stale, and the next
query submission either raises :class:`~repro.errors.StaleSessionError`
(``on_mutation="refuse"``, the default — a serving tier should decide
explicitly when to recompile) or transparently recompiles
(``on_mutation="refresh"``).  :meth:`MatchSession.refresh` is the
explicit recompile.

Every query executes through the exact engine wrappers the one-shot
API uses — a session changes *where artifacts come from*, never what
is computed — so batch answers are identical to looped one-shot calls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import MatchingError, StaleSessionError
from repro.graph import csr
from repro.graph.digraph import Graph
from repro.obs import instrumentation, trace
from repro.patterns.pattern import Pattern
from repro.ranking.diversification import DiversificationObjective
from repro.ranking.relevance import RelevanceFunction
from repro.session.cache import SessionCache, pattern_structure_key
from repro.session.config import ExecutionConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a topk import cycle)
    from repro.graph.delta import DeltaOp
    from repro.incremental.view import MatchView
    from repro.session.parallel import WorkerPool
    from repro.topk.result import TopKResult

QUERY_MODES = ("topk", "diversified", "baseline", "multi")
DIVERSIFY_METHODS = ("heuristic", "approx")


@dataclass
class QuerySpec:
    """*What* to compute for one query of a batch.

    ``mode`` selects the algorithm family: ``"topk"`` (early-terminating
    topKP, routed ``TopKDAG``/``TopK`` by pattern shape), ``"diversified"``
    (topKDP via ``method`` — the early-terminating heuristic or the
    2-approximation), ``"baseline"`` (the find-all ``Match``), and
    ``"multi"`` (topKP fanned out over every designated output node,
    returning ``{output_node: TopKResult}``).  ``config`` overrides the
    session's :class:`ExecutionConfig` for this query only.
    """

    pattern: Pattern
    k: int = 10
    mode: str = "topk"
    lam: float = 0.5
    method: str = "heuristic"
    objective: DiversificationObjective | None = None
    relevance_fn: RelevanceFunction | None = None
    output_node: int | None = None
    config: ExecutionConfig | None = None

    def __post_init__(self) -> None:
        if self.mode not in QUERY_MODES:
            raise MatchingError(
                f"unknown query mode {self.mode!r}; expected one of {QUERY_MODES}"
            )
        if self.method not in DIVERSIFY_METHODS:
            raise MatchingError(
                f"unknown diversification method {self.method!r}; "
                f"expected one of {DIVERSIFY_METHODS}"
            )
        if self.k < 1:
            raise MatchingError(f"k must be positive; got {self.k}")


class QueryHandle:
    """A lazily-executed query pinned to its session.

    Created by :meth:`MatchSession.submit`; :meth:`result` executes on
    first call (raising :class:`StaleSessionError` if the graph mutated
    under a refuse-mode session) and caches the answer thereafter — a
    handle resolved before a mutation stays valid after it.
    """

    __slots__ = ("session", "spec", "_result", "_done")

    def __init__(self, session: "MatchSession", spec: QuerySpec) -> None:
        self.session = session
        self.spec = spec
        self._result: Any = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> TopKResult | dict[int, TopKResult]:
        if not self._done:
            self._result = self.session._execute(self.spec)
            self._done = True
        return self._result

    def __repr__(self) -> str:
        state = "done" if self._done else "pending"
        return f"QueryHandle({self.spec.mode}, k={self.spec.k}, {state})"


@dataclass
class SessionStats:
    """Serving counters of one :class:`MatchSession`."""

    queries_executed: int = 0
    results_reused: int = 0
    batches_executed: int = 0
    refreshes: int = 0
    cache: dict[str, int] = field(default_factory=dict)


class MatchSession:
    """One pinned graph + shared caches serving many queries.

    Parameters
    ----------
    graph:
        The data graph every query of this session runs against.
    config:
        Session-wide :class:`ExecutionConfig` default (per-query specs
        may override).  ``None`` is the all-defaults config.
    on_mutation:
        ``"refuse"`` (default): executing a query after a structural
        graph mutation raises :class:`StaleSessionError` until
        :meth:`refresh` is called.  ``"refresh"``: the session
        recompiles transparently before the next query.
    reuse_results:
        Serve an *identical* resubmitted query (same pattern structure,
        mode, ``k``, ``lam``, method, output designation and
        config; default relevance/objective only) from the session's
        result store — as an independent copy — instead of re-running
        it.  Sound because every
        query is deterministic in (spec, graph generation) and the
        store dies with the generation on any refresh; ``False`` forces
        a full run per submission.
    """

    def __init__(
        self,
        graph: Graph,
        config: ExecutionConfig | None = None,
        on_mutation: str = "refuse",
        reuse_results: bool = True,
    ) -> None:
        if on_mutation not in ("refuse", "refresh"):
            raise MatchingError(
                f"on_mutation must be 'refuse' or 'refresh'; got {on_mutation!r}"
            )
        self.graph = graph
        self.config = config if config is not None else ExecutionConfig()
        self.on_mutation = on_mutation
        self.reuse_results = reuse_results
        self.cache = SessionCache(graph)
        self.stats = SessionStats()
        self._acked_mutations = 0
        self._closed = False
        self._pool: "WorkerPool | None" = None
        self._pool_key: tuple[int, int] | None = None
        #: Pool-lifetime delta log: the ops every selective refresh
        #: observed since the current pool pickled its graph copy.
        self._pool_ops: "list[DeltaOp]" = []
        #: Guards the pool lifecycle triple above: a refresh on one
        #: thread racing a pooled batch on another must never observe a
        #: half-swapped (pool, key, ops) state or build two pools.
        self._pool_lock = threading.Lock()
        if self.config.snapshot_patching:
            # Delta-aware serving: small deltas patch the cached CSR
            # snapshot instead of recompiling it, and the cache drops
            # only delta-affected artifacts on refresh.
            csr.attach_snapshot_patching(graph)
            self.cache.selective = True

    # ------------------------------------------------------------------
    # lifecycle / freshness
    # ------------------------------------------------------------------
    @property
    def stale(self) -> bool:
        """True when the graph mutated since this session last
        acknowledged it (via :meth:`refresh` or the ``"refresh"``
        policy).  Deliberately independent of the cache's artifact
        state: a registered view's rebuild may refresh the artifacts
        mid-update, but under the ``"refuse"`` policy the *session*
        still demands an explicit :meth:`refresh` before serving."""
        return self.cache.mutation_count != self._acked_mutations

    def refresh(self) -> None:
        """Explicitly acknowledge mutations and recompile lazily.

        Cached artifacts are dropped only if they actually predate the
        last mutation — a view rebuild may have refreshed them already,
        and re-dropping would waste its work.  Under
        ``ExecutionConfig(snapshot_patching=True)`` the cache routes
        the drop selectively, and a live worker pool survives the
        refresh when the delta can be shipped to it (see
        :meth:`_note_refresh`).
        """
        if self.cache.stale:
            pending = self.cache.pending_ops
            generation_before = self.cache.generation
            mode = self.cache.refresh()
            self._note_refresh(mode, pending, generation_before)
        self._acked_mutations = self.cache.mutation_count
        self.stats.refreshes += 1

    def _note_refresh(
        self,
        mode: str,
        pending: "list[DeltaOp]",
        generation_before: int,
    ) -> None:
        """Decide whether the worker pool survives this refresh.

        The pool is keyed ``(workers, generation)``; left alone, the
        generation bump forces a full rebuild (fresh graph pickle) at
        the next pooled batch.  After a *selective* refresh the pool
        can instead be kept: the observed ops extend the pool-lifetime
        delta log (shipped with every dispatch; workers replay the
        unseen suffix) and the key is re-pinned to the new generation.
        Survival requires the pool to have been current up to this very
        refresh — if an implicit cache refresh (a view rebuild) already
        moved the generation past the pool's key, the ops it consumed
        were never captured here, so the pool must rebuild.  Wholesale
        refreshes, unpicklable ops and a log past
        :data:`~repro.session.parallel.POOL_OPS_CAP` also fall back to
        the rebuild path.
        """
        from repro.session.parallel import POOL_OPS_CAP

        with self._pool_lock:
            if self._pool is None or self._pool_key is None:
                return
            workers, pool_generation = self._pool_key
            if (
                mode == "selective"
                and pool_generation == generation_before
                and len(self._pool_ops) + len(pending) <= POOL_OPS_CAP
                and self._ops_shippable(pending)
            ):
                self._pool_ops.extend(pending)
                self._pool_key = (workers, self.cache.generation)

    @staticmethod
    def _ops_shippable(pending: "list[DeltaOp]") -> bool:
        import pickle

        try:
            pickle.dumps(tuple(pending), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return True

    def close(self) -> None:
        """Release the graph-event subscription, caches and any pool."""
        if not self._closed:
            self._closed = True
            self._drop_pool()
            self.cache.close()

    def __enter__(self) -> "MatchSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_fresh(self) -> None:
        if self._closed:
            raise MatchingError("session is closed")
        if self.stale:
            if self.on_mutation == "refresh":
                self.refresh()
            else:
                raise StaleSessionError(
                    "graph mutated under this session's pinned snapshot; "
                    "call refresh() (or open the session with "
                    "on_mutation='refresh') before submitting more queries"
                )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        pattern: Pattern,
        k: int = 10,
        *,
        mode: str = "topk",
        lam: float = 0.5,
        method: str = "heuristic",
        objective: DiversificationObjective | None = None,
        relevance_fn: RelevanceFunction | None = None,
        output_node: int | None = None,
        config: ExecutionConfig | None = None,
    ) -> QueryHandle:
        """Register a query and return its lazy :class:`QueryHandle`."""
        spec = QuerySpec(
            pattern=pattern,
            k=k,
            mode=mode,
            lam=lam,
            method=method,
            objective=objective,
            relevance_fn=relevance_fn,
            output_node=output_node,
            config=config,
        )
        return QueryHandle(self, spec)

    def run_batch(
        self, queries: Iterable[QuerySpec | QueryHandle]
    ) -> list[TopKResult | dict[int, TopKResult]]:
        """Execute a heterogeneous batch with shared candidate computation.

        Queries are grouped by pattern structure signature (stable —
        first appearance fixes a group's turn), so each group's label
        bucket scans, simulation and top-k evaluations are computed once
        and reused by the rest of the group.  Results are
        returned in input order, each identical to the corresponding
        one-shot ``api`` call.

        With ``ExecutionConfig(workers=N)`` (N ≥ 2) the structure
        groups are partitioned across a spawn-safe
        :class:`~repro.session.parallel.WorkerPool` of worker
        processes; answers, order and the per-result stats published to
        the ambient collectors stay identical to the serial path (see
        :mod:`repro.session.parallel`).
        """
        self._check_fresh()
        handles: list[QueryHandle] = [
            q if isinstance(q, QueryHandle) else QueryHandle(self, q)
            for q in queries
        ]
        group_rank: dict[Any, int] = {}
        ranked: list[tuple[int, int, QueryHandle]] = []
        for index, handle in enumerate(handles):
            signature = pattern_structure_key(handle.spec.pattern)
            rank = group_rank.setdefault(signature, len(group_rank))
            ranked.append((rank, index, handle))
        ranked.sort(key=lambda item: (item[0], item[1]))
        cfg = self.config
        with instrumentation(cfg), trace(
            "session.run_batch",
            queries=len(handles),
            groups=len(group_rank),
            workers=cfg.workers,
        ):
            if cfg.workers >= 2 and len(handles) >= 2:
                self._run_batch_pooled(ranked, cfg)
            for _, _, handle in ranked:
                handle.result()
        self.stats.batches_executed += 1
        return [handle.result() for handle in handles]

    # ------------------------------------------------------------------
    # pooled execution
    # ------------------------------------------------------------------
    def _drop_pool(self) -> None:
        with self._pool_lock:
            self._drop_pool_locked()

    def _drop_pool_locked(self) -> None:
        # Caller holds self._pool_lock.
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_key = None

    def _worker_pool(self, cfg: ExecutionConfig) -> "WorkerPool":
        """The session's pool, (re)built when size or generation moved.

        The pool pins a pickled copy of the graph at its generation; a
        refresh (the only way a mutated graph reaches ``run_batch``)
        bumps the generation and forces a rebuild, so workers never
        serve a stale copy.  The one exception is a *selective* refresh
        whose delta was captured into the pool's log —
        :meth:`_note_refresh` re-pins the key, and the workers catch up
        by replaying the shipped ops instead of re-pickling the graph.
        """
        from repro.session.parallel import WorkerPool

        key = (cfg.workers, self.cache.generation)
        with self._pool_lock:
            if self._pool is None or self._pool_key != key:
                self._drop_pool_locked()
                self._pool = WorkerPool(
                    self.graph, cfg, cfg.workers, reuse_results=self.reuse_results
                )
                self._pool_key = key
                # A fresh pool pickled the current graph: its delta log
                # restarts empty.
                self._pool_ops = []
            return self._pool

    def _run_batch_pooled(
        self, ranked: list[tuple[int, int, QueryHandle]], cfg: ExecutionConfig
    ) -> None:
        """Resolve the batch's poolable handles through the worker pool.

        Fills each shipped handle in place; handles that are already
        done, reusable from the result store, or not poolable (custom
        relevance/objective, unpicklable specs) are left pending for
        the caller's serial loop.  For every pooled result the parent
        republishes the engine stats / slow-query record its serial
        execution would have produced (workers run stripped — see
        :func:`repro.session.parallel.worker_config`), then folds the
        per-worker serving deltas into :class:`SessionStats` and the
        ``repro_worker_*`` series.
        """
        from repro.obs import (
            current_metrics,
            maybe_log_slow_query,
            publish_engine_stats,
        )
        from repro.session.parallel import spec_is_poolable

        tasks: list[tuple[int, QuerySpec]] = []
        for _, index, handle in ranked:
            if handle.done:
                continue
            spec = handle.spec
            key = self._result_key(spec, self._config_for(spec))
            if key is not None:
                cached = self.cache.cached_result(key)
                if cached is not None:
                    handle._result = self._copy_result(cached)
                    handle._done = True
                    self.stats.results_reused += 1
                    continue
            if spec_is_poolable(spec):
                tasks.append((index, spec))
        if not tasks:
            return

        pool = self._worker_pool(cfg)
        with trace("session.pool_dispatch", queries=len(tasks)):
            results, worker_stats = pool.run(tasks, self._pool_ops)

        handle_of = {index: handle for _, index, handle in ranked}
        for index, result in results:
            handle = handle_of[index]
            handle._result = result
            handle._done = True
            spec = handle.spec
            cfg_q = self._config_for(spec)
            key = self._result_key(spec, cfg_q)
            if key is not None:
                self.cache.store_result(key, self._copy_result(result))
            # Mirror the serial epilogue (record_run) exactly once per
            # result: workers executed with collectors stripped.
            with instrumentation(cfg_q):
                registry = current_metrics()
                parts = (
                    tuple(result.values())
                    if isinstance(result, dict)
                    else (result,)
                )
                for res in parts:
                    if registry is not None:
                        publish_engine_stats(registry, res.stats, res.algorithm)
                    maybe_log_slow_query(
                        res.algorithm,
                        spec.pattern,
                        spec.k,
                        res.stats.elapsed_seconds,
                        cfg_q,
                    )

        for ws in worker_stats:
            self.stats.queries_executed += ws.queries_executed
            self.stats.results_reused += ws.results_reused
        registry = current_metrics()
        if registry is not None:
            queries = registry.counter(
                "repro_worker_queries_total",
                "Batch queries served by serving-pool workers.",
            )
            dispatches = registry.counter(
                "repro_worker_dispatches_total",
                "Serving-pool dispatches per worker.",
            )
            seconds = registry.histogram(
                "repro_worker_dispatch_seconds",
                "Wall-clock seconds of one worker dispatch.",
            )
            for ws in worker_stats:
                label = str(ws.worker)
                queries.inc(ws.queries, worker=label)
                dispatches.inc(1, worker=label)
                seconds.observe(ws.elapsed_seconds, worker=label)

    # ------------------------------------------------------------------
    # immediate-mode conveniences
    # ------------------------------------------------------------------
    def top_k(self, pattern: Pattern, k: int = 10, **options: Any) -> TopKResult:
        """Immediate topKP through the session caches."""
        return self.submit(pattern, k, mode="topk", **options).result()

    def diversified(self, pattern: Pattern, k: int = 10, **options: Any) -> TopKResult:
        """Immediate topKDP through the session caches."""
        return self.submit(pattern, k, mode="diversified", **options).result()

    def baseline(self, pattern: Pattern, k: int = 10, **options: Any) -> TopKResult:
        """Immediate find-all ``Match`` baseline through the session caches."""
        return self.submit(pattern, k, mode="baseline", **options).result()

    def top_k_multi(
        self, pattern: Pattern, k: int = 10, **options: Any
    ) -> dict[int, TopKResult]:
        """topKP fanned out over every designated output node.

        One session run per output node, all sharing the pattern's
        candidates and simulation — built once, not once per output
        node; each output node has its own top-k evaluation.
        """
        return self.submit(pattern, k, mode="multi", **options).result()

    def register_view(
        self, pattern: Pattern, k: int = 10, **view_options: Any
    ) -> "MatchView":
        """Materialize a :class:`MatchView` wired to this session's cache.

        The view's full rebuilds (initial build, threshold fallbacks)
        fetch candidates and simulation through the session cache, so a
        view rebuild and the session's ad-hoc queries over the same
        pattern share one computation — and all of them share the one
        compiled snapshot in ``graph.derived``.
        """
        from repro.incremental.manager import MatchViewManager

        view_options.setdefault("cache", self.cache)
        return MatchViewManager.for_graph(self.graph).register(
            pattern, k=k, **view_options
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _config_for(self, spec: QuerySpec) -> ExecutionConfig:
        return spec.config if spec.config is not None else self.config

    def _result_key(
        self, spec: QuerySpec, cfg: ExecutionConfig
    ) -> tuple[Any, ...] | None:
        """The result-store key of ``spec``, or ``None`` if uncacheable.

        Custom relevance functions and objectives are opaque (possibly
        stateful) — those queries always run.
        """
        if not self.reuse_results:
            return None
        if spec.relevance_fn is not None or spec.objective is not None:
            return None
        return (
            pattern_structure_key(spec.pattern),
            tuple(spec.pattern.output_nodes),
            spec.mode,
            spec.k,
            spec.lam,
            spec.method,
            spec.output_node,
            cfg,
        )

    @staticmethod
    def _copy_result(
        result: "TopKResult | dict[int, TopKResult]",
    ) -> "TopKResult | dict[int, TopKResult]":
        """An independent copy of a stored answer.

        ``TopKResult`` is mutable (``matches`` list, ``scores`` dict,
        harness-filled ``stats``), so the store keeps a private master
        and every serve — including the store write itself — works on
        copies: a caller mutating its answer can never corrupt later
        ones.
        """
        from dataclasses import replace

        if isinstance(result, dict):  # multi-output fan-out
            return {
                node: MatchSession._copy_result(res)
                for node, res in result.items()
            }
        from repro.topk.result import TopKResult as _TopKResult

        return _TopKResult(
            matches=list(result.matches),
            scores=dict(result.scores),
            algorithm=result.algorithm,
            stats=replace(result.stats),
            objective_value=result.objective_value,
        )

    def _execute(self, spec: QuerySpec) -> TopKResult | dict[int, TopKResult]:
        self._check_fresh()
        cfg = self._config_for(spec)
        with instrumentation(cfg), trace(
            "session.query", mode=spec.mode, k=spec.k
        ) as span:
            key = self._result_key(spec, cfg)
            if key is not None:
                cached = self.cache.cached_result(key)
                if cached is not None:
                    self.stats.results_reused += 1
                    if span is not None:
                        span.set_attr(result="reused")
                    return self._copy_result(cached)
            result = self._execute_fresh(spec, cfg)
            if key is not None:
                self.cache.store_result(key, self._copy_result(result))
        return result

    def _execute_fresh(
        self, spec: QuerySpec, cfg: ExecutionConfig
    ) -> TopKResult | dict[int, TopKResult]:
        pattern = spec.pattern
        self.stats.queries_executed += 1
        if spec.mode == "topk":
            return self._run_topk(pattern, spec, cfg, spec.output_node)
        if spec.mode == "multi":
            if not pattern.output_nodes:
                raise MatchingError("pattern has no designated output nodes")
            return {
                node: self._run_topk(pattern, spec, cfg, node)
                for node in pattern.output_nodes
            }
        if spec.mode == "baseline":
            from repro.topk.match_all import match_baseline

            return match_baseline(
                pattern,
                self.graph,
                spec.k,
                relevance_fn=spec.relevance_fn,
                context=self.cache.ranking_context(pattern),
                config=cfg,
            )
        # diversified
        if spec.method == "approx":
            from repro.diversify.approx import top_k_diversified_approx

            return top_k_diversified_approx(
                pattern,
                self.graph,
                spec.k,
                lam=spec.lam,
                objective=spec.objective,
                context=self.cache.ranking_context(pattern),
                config=cfg,
            )
        from repro.diversify.heuristic import top_k_diversified_heuristic

        return top_k_diversified_heuristic(
            pattern,
            self.graph,
            spec.k,
            lam=spec.lam,
            objective=spec.objective,
            config=cfg,
            cache=self.cache,
        )

    def _run_topk(
        self,
        pattern: Pattern,
        spec: QuerySpec,
        cfg: ExecutionConfig,
        output_node: int | None,
    ) -> TopKResult:
        if pattern.is_dag():
            from repro.topk.dag import top_k_dag as runner
        else:
            from repro.topk.cyclic import top_k as runner
        return runner(
            pattern,
            self.graph,
            spec.k,
            relevance_fn=spec.relevance_fn,
            output_node=output_node,
            config=cfg,
            cache=self.cache,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """Hit/build counters per cached artifact class."""
        return self.cache.stats.as_dict()

    def __repr__(self) -> str:
        return (
            f"MatchSession(|V|={self.graph.num_nodes}, "
            f"generation={self.cache.generation}, "
            f"queries={self.stats.queries_executed}, "
            f"{'stale' if self.stale else 'fresh'})"
        )
