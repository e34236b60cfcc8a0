"""Cross-query caches pinned to one graph snapshot generation.

A :class:`SessionCache` owns every artifact that is expensive to build
yet pure in ``(pattern structure, graph state)``:

* **label buckets** — the pre-predicate candidate base lists, shared
  across *every* pattern in the session (two patterns asking for label
  ``"music"`` scan the bucket once);
* **candidate sets** — ``can(u)`` per pattern search-condition row;
* **simulation** — the maximal-simulation fixpoint, shared by every
  query kind and every output node of a pattern;
* **evaluations** (the ``paircsr`` store) — the match-pair
  condensation with its bounds and its growing relevant-set memo, one
  per pattern and output node, so every top-k, multi-output, TopKDH,
  ``Match`` and ``TopKDiv`` query of the pattern shares one build;
* **ranking contexts** — :class:`RankingContext` objects over the
  simulation and the evaluation, serving ``Match`` / ``TopKDiv``
  style queries.

Artifacts are keyed structurally — label row, edge list, predicate
objects — so two equal patterns share.

The cache subscribes to its graph's change events: any structural
mutation marks it *stale*, after which the owning
:class:`~repro.session.session.MatchSession` refuses or refreshes per
its policy.  :meth:`refresh` starts a fresh generation; by default it
drops every artifact (*wholesale*), but a cache switched to
:attr:`selective` mode (the session does this under
``ExecutionConfig(snapshot_patching=True)``) accumulates the mutation
ops and drops only the artifacts whose label signature intersects the
delta — a pattern over labels the write stream never touched keeps its
candidates, simulation, evaluations and stored results across the
generation bump (*label-selective invalidation*).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable

from repro.graph.digraph import Graph
from repro.incremental.affected import (
    PatternLabelSignature,
    summarize_delta,
)
from repro.obs import current_metrics, trace
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.simulation.candidates import (
    WILDCARD_LABEL,
    CandidateSets,
    compute_candidates,
    label_bucket,
)
from repro.simulation.match import SimulationResult, maximal_simulation
from repro.simulation.relevant import Evaluation, build_evaluation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.delta import DeltaOp

#: Pending-op accumulation cap for selective mode.  A delta longer than
#: this has almost certainly touched every label anyway; the next
#: refresh falls back to the wholesale drop instead of paying a
#: per-artifact intersection test over an unbounded log.
PENDING_OPS_CAP = 4096


@dataclass
class SessionCacheStats:
    """Hit/build counters per artifact class, session lifetime totals."""

    bucket_hits: int = 0
    bucket_builds: int = 0
    candidates_hits: int = 0
    candidates_builds: int = 0
    sim_hits: int = 0
    sim_builds: int = 0
    #: Always 0: the engine's bound is part of its evaluation, counted
    #: under ``paircsr``.
    bounds_hits: int = 0
    bounds_builds: int = 0
    paircsr_hits: int = 0
    paircsr_builds: int = 0
    context_hits: int = 0
    context_builds: int = 0
    result_hits: int = 0
    result_builds: int = 0
    refreshes: int = 0
    #: Refresh-mode split: every refresh is exactly one of these.
    selective_refreshes: int = 0
    wholesale_refreshes: int = 0
    #: Artifact-survival totals across selective refreshes: entries kept
    #: because their label signature missed the delta vs entries dropped
    #: (wholesale refreshes count everything as dropped).
    artifacts_survived: int = 0
    artifacts_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def pattern_structure_key(pattern: Pattern) -> tuple[Any, ...]:
    """A structural cache key: labels, edges, predicates, nothing else.

    Output-node designations are deliberately excluded — candidates and
    simulation are output-independent, which is exactly what lets a
    multi-output fan-out share one fixpoint; artifacts that depend on the
    output node add it to their own key.
    Patterns whose predicates are unhashable (arbitrary user objects
    with list-valued constants) fall back to an identity key: no
    structural sharing, but never an unsound collision.
    """
    key = (
        tuple(pattern.label(u) for u in pattern.nodes()),
        tuple(pattern.edges()),
        tuple(pattern.predicate(u) for u in pattern.nodes()),
    )
    try:
        hash(key)
    except TypeError:
        return ("@id", id(pattern), pattern)
    return key


class SessionCache:
    """The shared artifact store behind a :class:`MatchSession`.

    The compiled :class:`~repro.graph.csr.CSRSnapshot` itself is *not*
    duplicated here — it is always obtained through
    :meth:`Graph.snapshot`, whose cache lives in ``graph.derived``, so
    session queries, ad-hoc one-shot calls and :class:`MatchView`
    rebuilds all share the one compilation pass.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.stats = SessionCacheStats()
        self.generation = 0
        self._stale = False
        #: Monotone count of graph mutations observed — never reset, so
        #: an owner (the session) can latch "mutated since I last
        #: acknowledged" independently of artifact-level refreshes
        #: (e.g. the implicit one a view rebuild performs).
        self.mutation_count = 0
        self._closed = False
        #: Label-selective invalidation switch.  Off (the default) every
        #: refresh is the historical wholesale drop; the owning session
        #: turns it on under ``ExecutionConfig(snapshot_patching=True)``.
        self.selective = False
        self._pending_ops: list["DeltaOp"] = []
        self._pending_overflow = False
        self._buckets: dict[tuple, list[int]] = {}
        self._candidates: dict[tuple, CandidateSets] = {}
        self._sim: dict[tuple, SimulationResult] = {}
        self._pair_csr: dict[tuple, Evaluation] = {}
        self._contexts: dict[tuple, RankingContext] = {}
        self._results: dict[tuple, object] = {}
        self._unsubscribe = graph.add_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _on_mutation(self, op: "DeltaOp") -> None:
        self._stale = True
        self.mutation_count += 1
        if self.selective and not self._pending_overflow:
            if len(self._pending_ops) >= PENDING_OPS_CAP:
                self._pending_overflow = True
                self._pending_ops.clear()
            else:
                self._pending_ops.append(op)

    @property
    def pending_ops(self) -> list["DeltaOp"]:
        """The mutation ops observed since the last refresh (selective
        mode only; empty after an overflow to wholesale)."""
        return list(self._pending_ops)

    @property
    def stale(self) -> bool:
        """True while cached artifacts predate the last graph mutation.

        Cleared by :meth:`refresh` (including the implicit one a view
        rebuild triggers) — this is *artifact* validity; the session's
        refuse policy latches on :attr:`mutation_count` instead, so an
        implicit refresh never silently waives it.
        """
        return self._stale

    def refresh(self) -> str:
        """Start a fresh generation; returns the mode taken.

        ``"wholesale"`` (the default and the fallback): every artifact
        is dropped.  ``"selective"`` (cache in :attr:`selective` mode
        with a bounded pending-op log): only the artifacts whose label
        signature intersects the accumulated delta are dropped — the
        rest survive the generation bump.  Either way :attr:`generation`
        advances, so generation-keyed consumers (result stores, worker
        pools) observe every refresh identically.
        """
        if (
            self.selective
            and not self._pending_overflow
            and self._pending_ops
        ):
            mode = "selective"
            self._refresh_selective()
        else:
            mode = "wholesale"
            self._refresh_wholesale()
        self._pending_ops.clear()
        self._pending_overflow = False
        self._stale = False
        self.generation += 1
        self.stats.refreshes += 1
        registry = current_metrics()
        if registry is not None:
            registry.counter(
                "repro_session_refresh_total",
                "SessionCache refreshes by invalidation mode.",
            ).inc(1, mode=mode)
        return mode

    def _refresh_wholesale(self) -> None:
        self.stats.wholesale_refreshes += 1
        self.stats.artifacts_dropped += sum(
            len(store) for store in self._stores()
        )
        for store in self._stores():
            store.clear()

    def _stores(self) -> tuple[dict[tuple, Any], ...]:
        return (
            self._buckets,
            self._candidates,
            self._sim,
            self._pair_csr,
            self._contexts,
            self._results,
        )

    def _refresh_selective(self) -> None:
        """Drop only the artifacts the accumulated delta can affect.

        Per artifact class the sound test differs:

        * **buckets** are pre-predicate label membership lists — only
          node ops move them (edge and attrs ops cannot), and the
          wildcard bucket is the live set, so it reacts to node ops of
          any label;
        * **candidates** are buckets narrowed by predicates — node and
          attrs ops count, edge ops still cannot
          (:meth:`PatternLabelSignature.affects_candidates`);
        * **simulation / evaluations / contexts / results** are
          functions of the match relation and the match-restricted
          structure, both constrained to the pattern's label signature
          (:meth:`PatternLabelSignature.affects_relation` — the same
          per-op test :class:`~repro.incremental.view.MatchView`
          dispatches on, folded over the log).

        Identity-keyed artifacts (unhashable predicates) have no
        recoverable signature and are dropped conservatively.
        """
        delta = summarize_delta(self._pending_ops, self.graph)
        self.stats.selective_refreshes += 1
        memo: dict[Any, PatternLabelSignature | None] = {}

        def sig_of(psk: Any) -> PatternLabelSignature | None:
            if psk in memo:
                return memo[psk]
            sig: PatternLabelSignature | None = None
            if (
                isinstance(psk, tuple)
                and len(psk) == 3
                and psk[0] != "@id"
            ):
                labels, edges, predicates = psk
                sig = PatternLabelSignature.from_structure(
                    labels, edges, predicates
                )
            memo[psk] = sig
            return sig

        node_hit = delta.node_labels

        def bucket_doomed(key: tuple) -> bool:
            label = key[0]
            if label == WILDCARD_LABEL:
                return bool(node_hit)
            return label in node_hit

        def candidates_doomed(key: tuple) -> bool:
            sig = sig_of(key[1])
            return sig is None or sig.affects_candidates(delta)

        def relation_doomed(key: tuple) -> bool:
            sig = sig_of(key[1])
            return sig is None or sig.affects_relation(delta)

        def result_doomed(key: tuple) -> bool:
            if not key:
                return True
            sig = sig_of(key[0])
            return sig is None or sig.affects_relation(delta)

        self._drop_where(self._buckets, bucket_doomed)
        self._drop_where(self._candidates, candidates_doomed)
        self._drop_where(self._sim, relation_doomed)
        self._drop_where(self._pair_csr, relation_doomed)
        self._drop_where(self._contexts, relation_doomed)
        self._drop_where(self._results, result_doomed)
        # Safety valve: surviving snapshot-path buckets are token-keyed,
        # so a compaction (every token moves) can strand entries that no
        # current snapshot will ever address again.  Bound the store
        # instead of chasing tokens.
        if len(self._buckets) > 4 * max(1, len(self.graph.labels)) + 16:
            self.stats.artifacts_dropped += len(self._buckets)
            self._buckets.clear()

    def _drop_where(
        self,
        store: dict[tuple, Any],
        doomed: Callable[[tuple], bool],
    ) -> None:
        stale_keys = [key for key in store if doomed(key)]
        for key in stale_keys:
            del store[key]
        self.stats.artifacts_dropped += len(stale_keys)
        self.stats.artifacts_survived += len(store)

    def close(self) -> None:
        """Detach from the graph's change events and drop all state."""
        if self._closed:
            return
        self._closed = True
        self._unsubscribe()
        # Unconditionally wholesale: a selective refresh would retain
        # artifacts on a cache that is going away.
        self._pending_ops.clear()
        self._pending_overflow = False
        self.refresh()

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    @staticmethod
    def _observe(artifact: str, outcome: str) -> None:
        """Mirror one hit/build tick into the ambient metrics registry."""
        registry = current_metrics()
        if registry is not None:
            registry.counter(
                "repro_session_cache_total",
                "SessionCache artifact lookups by artifact class and outcome.",
            ).inc(1, artifact=artifact, outcome=outcome)

    def _base_source(self) -> Callable[[str], list[int]]:
        """A label → pre-predicate base list lookup over the bucket cache.

        Buckets are keyed by the snapshot's *bucket token* for that
        label, not by the snapshot's mere presence: a patched snapshot
        inherits the base's token for every label its delta did not
        touch (so those buckets keep hitting across a patch) and mints a
        fresh token for the touched ones (so a patched snapshot can
        never serve a stale pre-patch bucket).  The wildcard bucket is
        the live set and keys on the live-set token; an absent label
        keys on ``0`` (no token is ever 0) and re-keys itself the moment
        the label is interned.
        """
        graph = self.graph
        snapshot = graph.snapshot()

        def base(label: str) -> list[int]:
            if label == WILDCARD_LABEL:
                key = (label, snapshot.live_token())
            else:
                label_id = graph.labels.get(label)
                key = (
                    (label, 0)
                    if label_id is None
                    else (label, snapshot.bucket_token(label_id))
                )
            cached = self._buckets.get(key)
            if cached is not None:
                self.stats.bucket_hits += 1
                self._observe("bucket", "hit")
                return cached
            self.stats.bucket_builds += 1
            self._observe("bucket", "build")
            bucket = label_bucket(graph, snapshot, label)
            self._buckets[key] = bucket
            return bucket

        return base

    def candidates(self, pattern: Pattern) -> tuple[CandidateSets, bool]:
        """``can(u)`` rows for ``pattern``; returns ``(sets, was_hit)``."""
        key = ("can", pattern_structure_key(pattern))
        cached = self._candidates.get(key)
        if cached is not None:
            self.stats.candidates_hits += 1
            self._observe("candidates", "hit")
            return cached, True
        self.stats.candidates_builds += 1
        self._observe("candidates", "build")
        with trace("cache.build", artifact="candidates"):
            built = compute_candidates(
                pattern, self.graph, base_source=self._base_source()
            )
        self._candidates[key] = built
        return built, False

    def simulation(self, pattern: Pattern) -> tuple[SimulationResult, bool]:
        """The maximal-simulation fixpoint; returns ``(simulation, was_hit)``."""
        key = ("sim", pattern_structure_key(pattern))
        cached = self._sim.get(key)
        if cached is not None:
            self.stats.sim_hits += 1
            self._observe("simulation", "hit")
            return cached, True
        self.stats.sim_builds += 1
        self._observe("simulation", "build")
        with trace("cache.build", artifact="simulation"):
            base, _ = self.candidates(pattern)
            result = maximal_simulation(pattern, self.graph, base)
        self._sim[key] = result
        return result, False

    def pair_csr(
        self,
        pattern: Pattern,
        output_node: int,
        simulation: SimulationResult,
    ) -> tuple[Evaluation, bool]:
        """The evaluation of ``pattern`` at ``output_node``.

        Keyed on the pattern structure and the output node, so every
        top-k, multi-output, TopKDH, ``Match`` and ``TopKDiv`` query of
        a pattern shares one build and its relevant-set memo.
        ``simulation`` must be this cache's simulation of ``pattern``.
        """
        key = ("paircsr", pattern_structure_key(pattern), output_node)
        cached = self._pair_csr.get(key)
        if cached is not None:
            self.stats.paircsr_hits += 1
            self._observe("pair_csr", "hit")
            return cached, True
        self.stats.paircsr_builds += 1
        self._observe("pair_csr", "build")
        with trace("cache.build", artifact="pair_csr"):
            built = build_evaluation(pattern, self.graph, simulation.sim, output_node)
        self._pair_csr[key] = built
        return built, False

    def ranking_context(self, pattern: Pattern) -> RankingContext:
        """A :class:`RankingContext` over the session's evaluation.

        Serves the find-all-then-rank family (``Match``, ``TopKDiv``).
        Its relevant sets are views of the :meth:`pair_csr` evaluation
        the top-k queries of the pattern use, memo included.
        """
        key = ("ctx", pattern_structure_key(pattern), pattern.output_node)
        cached = self._contexts.get(key)
        if cached is not None:
            self.stats.context_hits += 1
            self._observe("ranking_context", "hit")
            return cached
        self.stats.context_builds += 1
        self._observe("ranking_context", "build")
        with trace("cache.build", artifact="ranking_context"):
            result, _ = self.simulation(pattern)
            evaluation = None
            if result.total:
                evaluation, _ = self.pair_csr(pattern, pattern.output_node, result)
            context = RankingContext(pattern, self.graph, result, evaluation=evaluation)
        self._contexts[key] = context
        return context

    def cached_result(self, key: tuple) -> Any:
        """A previously stored query result, or ``None``.

        Results live and die with the artifact generation (any refresh
        drops them), so a stored answer can never outlive the graph
        state it was computed on.
        """
        cached = self._results.get(key)
        if cached is not None:
            self.stats.result_hits += 1
            self._observe("result", "hit")
        return cached

    def store_result(self, key: tuple, result: Any) -> None:
        self.stats.result_builds += 1
        self._observe("result", "build")
        self._results[key] = result

    def view_rebuild(
        self, pattern: Pattern
    ) -> tuple[CandidateSets, SimulationResult]:
        """Candidates + full simulation for a :class:`MatchView` rebuild.

        View rebuilds run *because* the graph mutated, so a stale cache
        refreshes implicitly here (maintenance is mutation-driven; the
        session's refuse policy guards query submission, not repair).
        The caller must copy the returned sets before mutating them.
        """
        if self._stale:
            self.refresh()
        result, _ = self.simulation(pattern)
        base, _ = self.candidates(pattern)
        return base, result
