"""Cross-query caches kept current under graph writes.

A :class:`SessionCache` owns every artifact that is expensive to build
yet pure in ``(pattern structure, graph state)``:

* **label buckets** — the pre-predicate candidate base lists, shared
  across *every* pattern in the session (two patterns asking for label
  ``"music"`` scan the bucket once);
* **candidate sets** — ``can(u)`` per pattern search-condition row;
* **simulation** — the maximal simulation ``M(Q, G)``, shared by every
  query kind and every output node of a pattern;
* **evaluations** (the ``paircsr`` store) — the match-pair
  condensation with its bounds and its growing relevant-set memo, one
  per pattern and output node, so every top-k, multi-output, TopKDH,
  ``Match`` and ``TopKDiv`` query of the pattern shares one build;
* **ranking contexts** — :class:`RankingContext` objects over the
  simulation and the evaluation, serving ``Match`` / ``TopKDiv``
  style queries;
* **results** — stored answers of repeated queries.

Artifacts are keyed structurally — label row, edge list, predicate
objects — so two equal patterns share one entry.

Writes
------
The cache subscribes to its graph's change events and repairs each
cached match relation as the events arrive.  An op that the pattern's
label signature can see
(:meth:`~repro.incremental.affected.PatternLabelSignature.affects_op`)
repairs the pattern's candidate rows and simulation in place with the
routines of :mod:`repro.incremental.delta_sim`; when the repair's
touched frontier passes :func:`repair_threshold`, the fixpoint reruns
from the repaired rows instead.  The pattern's evaluations, ranking
contexts and stored results are dropped only when the relation or the
candidate rows changed, or when the op added or removed an edge
between two matches across a pattern edge — an edge of the match-pair
graph that relevant sets walk.  Everything else keeps serving.

An unpredicated candidate row is the label bucket list itself, shared
by every pattern and query node with that label, so a pattern's rows
are copied before the first node-op repair edits them.

A write also marks the cache *stale*, and the owning
:class:`~repro.session.session.MatchSession` refuses or refreshes per
its policy.  :meth:`SessionCache.refresh` starts a fresh generation: it
keeps every repaired artifact and drops only the label buckets, whose
snapshot tokens the writes retired.  A write repairs only the patterns
already cached; a pattern first read after the writes is built fresh.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import MatchingError
from repro.graph import csr
from repro.graph.delta import ADD_EDGE, ADD_NODE, REMOVE_EDGE, SET_ATTRS
from repro.graph.digraph import Graph
from repro.incremental import delta_sim
from repro.incremental.affected import PatternLabelSignature
from repro.obs import current_metrics, trace
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.simulation.candidates import (
    WILDCARD_LABEL,
    CandidateSets,
    compute_candidates,
    label_bucket,
)
from repro.simulation.csr_kernel import simulation_fixpoint_csr
from repro.simulation.match import SimulationResult, maximal_simulation
from repro.simulation.relevant import Evaluation, build_evaluation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.delta import DeltaOp


@dataclass
class SessionCacheStats:
    """Hit/build counters per artifact class, session lifetime totals."""

    bucket_hits: int = 0
    bucket_builds: int = 0
    #: Candidate rows are built with a simulation; a hit is a fixpoint
    #: rerun from rows a write repaired.
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
    #: Refresh-mode split: every refresh is exactly one of these.  A
    #: refresh keeps what the writes before it repaired (*selective*);
    #: only :meth:`SessionCache.close` drops every artifact (*wholesale*).
    selective_refreshes: int = 0
    wholesale_refreshes: int = 0
    #: Artifacts held across each refresh, and artifacts dropped: by a
    #: write that made them stale, as a refresh's label buckets, or by
    #: :meth:`SessionCache.close`.
    artifacts_survived: int = 0
    artifacts_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RepairStats:
    """Write-maintenance counters of one cached pattern.

    Attributes
    ----------
    ops_applied:
        Change events the pattern's label signature let through.
    ops_skipped:
        Events the label signature filtered out.
    incremental_ops:
        Events repaired by the delta routines.
    full_recomputes:
        Threshold fallbacks: events whose repair passed
        :func:`repair_threshold` and reran the fixpoint.
    pairs_touched:
        Candidate pairs the delta routines examined in total.
    relation_changes:
        Events after which the relation differed (a threshold fallback
        counts as one: the half-done repair leaves no pre-state).
    """

    ops_applied: int = 0
    ops_skipped: int = 0
    incremental_ops: int = 0
    full_recomputes: int = 0
    pairs_touched: int = 0
    relation_changes: int = 0


def repair_threshold(pattern: Pattern, graph: Graph) -> int:
    """Touched-frontier size past which one write reruns the fixpoint.

    Roughly the candidate-pair count of a fresh fixpoint: beyond this
    much touched state the rerun is no more expensive than the repair.
    """
    return max(256, pattern.num_edges * max(1, graph.num_nodes) // 4)


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


class _Entry:
    """Everything the cache holds for one pattern structure."""

    __slots__ = (
        "pattern",
        "simulation",
        "evaluations",
        "contexts",
        "results",
        "stats",
        "signature",
        "owns_rows",
    )

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        #: The relation with its candidate rows; ``None`` until first read.
        self.simulation: SimulationResult | None = None
        self.evaluations: dict[int, Evaluation] = {}
        self.contexts: dict[int, RankingContext] = {}
        self.results: dict[tuple[Any, ...], Any] = {}
        self.stats = RepairStats()
        #: Made at the first write that reaches the entry.
        self.signature: PatternLabelSignature | None = None
        #: True once the candidate rows are private copies.
        self.owns_rows = False

    def count(self) -> int:
        """How many artifacts the entry holds."""
        rows = 2 if self.simulation is not None else 0
        return rows + len(self.evaluations) + len(self.contexts) + len(self.results)


class SessionCache:
    """The shared artifact store behind a :class:`MatchSession`.

    The compiled :class:`~repro.graph.csr.CSRSnapshot` itself is *not*
    duplicated here — it is always obtained through
    :meth:`Graph.snapshot`, whose cache lives in ``graph.derived``, so
    session queries and ad-hoc one-shot calls share the one compilation
    pass.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.stats = SessionCacheStats()
        self.generation = 0
        self._stale = False
        #: Monotone count of graph mutations observed — never reset, so
        #: an owner (the session) can latch "mutated since I last
        #: acknowledged" independently of artifact-level refreshes.
        self.mutation_count = 0
        self._closed = False
        self._buckets: dict[tuple[str, int], list[int]] = {}
        self._entries: dict[tuple[Any, ...], _Entry] = {}
        self._unsubscribe = graph.add_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def stale(self) -> bool:
        """True while a graph mutation is not yet acknowledged by a refresh.

        The artifacts themselves are repaired at each write; this flag
        only tells the owning session to start a new generation.
        """
        return self._stale

    def refresh(self) -> str:
        """Start a fresh generation; returns the mode taken.

        Always ``"selective"``: every pattern artifact was repaired as
        the writes arrived and survives.  Only the label buckets go —
        they are keyed by snapshot tokens the writes retired.
        :attr:`generation` advances, so generation-keyed consumers
        (worker pools) observe every refresh.
        """
        self.stats.artifacts_dropped += len(self._buckets)
        self._buckets.clear()
        self.stats.artifacts_survived += sum(
            entry.count() for entry in self._entries.values()
        )
        return self._new_generation("selective")

    def _new_generation(self, mode: str) -> str:
        self._stale = False
        self.generation += 1
        self.stats.refreshes += 1
        if mode == "selective":
            self.stats.selective_refreshes += 1
        else:
            self.stats.wholesale_refreshes += 1
        registry = current_metrics()
        if registry is not None:
            registry.counter(
                "repro_session_refresh_total",
                "SessionCache refreshes by invalidation mode.",
            ).inc(1, mode=mode)
        return mode

    def close(self) -> None:
        """Detach from the graph's change events and drop all state."""
        if self._closed:
            return
        self._closed = True
        self._unsubscribe()
        self.stats.artifacts_dropped += len(self._buckets) + sum(
            entry.count() for entry in self._entries.values()
        )
        self._buckets.clear()
        self._entries.clear()
        self._new_generation("wholesale")

    # ------------------------------------------------------------------
    # write repair
    # ------------------------------------------------------------------
    def _on_mutation(self, op: "DeltaOp") -> None:
        self._stale = True
        self.mutation_count += 1
        if not self._entries:
            return
        registry = current_metrics()
        started = time.perf_counter() if registry is not None else 0.0
        with trace("cache.repair", kind=op.kind, patterns=len(self._entries)):
            for entry in self._entries.values():
                self._maintain(entry, op)
        if registry is not None:
            registry.histogram(
                "repro_session_repair_seconds",
                "SessionCache write-repair latency by op kind.",
            ).observe(time.perf_counter() - started, kind=op.kind)

    def _maintain(self, entry: _Entry, op: "DeltaOp") -> None:
        """Bring one pattern's artifacts up to date after ``op``."""
        if entry.signature is None:
            entry.signature = PatternLabelSignature.from_pattern(entry.pattern)
        stats = entry.stats
        if not entry.signature.affects_op(op, self.graph):
            stats.ops_skipped += 1
            return
        result = entry.simulation
        if result is None:
            # Results a pool worker computed: no relation here to repair.
            self._drop_ranking(entry)
            return
        stats.ops_applied += 1
        outcome = self._repair(entry, result, op)
        stats.pairs_touched += outcome.pairs_touched
        if outcome.overflowed:
            self._rerun_fixpoint(entry, result.candidates)
            stats.full_recomputes += 1
            stats.relation_changes += 1
            self._drop_ranking(entry)
            return
        stats.incremental_ops += 1
        if outcome.changed:
            stats.relation_changes += 1
            self._settle(entry, result.sim, result.candidates)
        if outcome.changed or _ranking_affected(entry.pattern, result.sim, op, outcome):
            self._drop_ranking(entry)

    def _repair(
        self, entry: _Entry, result: SimulationResult, op: "DeltaOp"
    ) -> delta_sim.DeltaOutcome:
        """Run the delta routine for ``op`` on the entry's relation."""
        pattern, graph, sim = entry.pattern, self.graph, result.sim
        kind = op.kind
        if kind in (ADD_EDGE, REMOVE_EDGE):
            assert op.src is not None and op.dst is not None
            threshold = repair_threshold(pattern, graph)
            if kind == ADD_EDGE:
                return delta_sim.edge_added(
                    pattern, graph, result.candidates.sets, sim,
                    op.src, op.dst, threshold,
                )
            return delta_sim.edge_removed(
                pattern, graph, sim, op.src, op.dst, threshold
            )
        assert op.node is not None
        rows = self._own_rows(entry, result)
        if kind == ADD_NODE:
            return delta_sim.node_added(
                pattern, graph, rows.lists, rows.sets, sim, op.node
            )
        if kind == SET_ATTRS:
            return delta_sim.attrs_changed(
                pattern, graph, rows.lists, rows.sets, sim, op.node,
                repair_threshold(pattern, graph),
            )
        return delta_sim.node_removed(
            pattern, graph, rows.lists, rows.sets, sim, op.node
        )

    @staticmethod
    def _own_rows(entry: _Entry, result: SimulationResult) -> CandidateSets:
        """The entry's candidate rows, copied before a node op edits them."""
        if not entry.owns_rows:
            shared = result.candidates
            result.candidates = CandidateSets(
                [list(row) for row in shared.lists],
                [set(row) for row in shared.sets],
            )
            entry.owns_rows = True
        return result.candidates

    def _rerun_fixpoint(self, entry: _Entry, candidates: CandidateSets) -> None:
        """Recompute a relation whose repair stopped half way.

        The rows are current: the routines edit them before any
        overflow.  The fixpoint compiles a private snapshot because a
        snapshot patcher subscribed after this cache has not logged
        the op yet, so ``graph.snapshot()`` could serve the state
        before it.
        """
        graph = self.graph
        self.stats.candidates_hits += 1
        self._observe("candidates", "hit")
        self.stats.sim_builds += 1
        self._observe("simulation", "build")
        sim = simulation_fixpoint_csr(
            entry.pattern, graph, candidates, csr.CSRSnapshot.build(graph)
        )
        self._settle(entry, sim, candidates)

    def _settle(
        self, entry: _Entry, sim: list[set[int]], candidates: CandidateSets
    ) -> None:
        """Cache a changed relation as a fresh :class:`SimulationResult`."""
        pattern = entry.pattern
        total = pattern.num_nodes > 0 and all(sim)
        entry.simulation = SimulationResult(pattern, self.graph, sim, total, candidates)

    def _drop_ranking(self, entry: _Entry) -> None:
        """Drop a pattern's evaluations, ranking contexts and stored results."""
        self.stats.artifacts_dropped += (
            len(entry.evaluations) + len(entry.contexts) + len(entry.results)
        )
        entry.evaluations.clear()
        entry.contexts.clear()
        entry.results.clear()

    def repair_stats(self, pattern: Pattern) -> RepairStats:
        """The write-maintenance counters of ``pattern``'s entry."""
        return self._entry(pattern).stats

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

    def _entry(self, pattern: Pattern) -> _Entry:
        if self._closed:
            raise MatchingError("session cache is closed")
        key = pattern_structure_key(pattern)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry(pattern)
        return entry

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

    def simulation(self, pattern: Pattern) -> tuple[SimulationResult, bool]:
        """The maximal simulation with its candidate rows; returns
        ``(simulation, was_hit)``.

        The relation is live, not a copy: each later write repairs its
        sets in place or replaces the result, so read it again after a
        write, and copy ``sim`` to keep the state before one.  Reading a
        pattern caches it, and from then on every write repairs it.
        """
        entry = self._entry(pattern)
        if entry.simulation is not None:
            self.stats.sim_hits += 1
            self._observe("simulation", "hit")
            return entry.simulation, True
        self.stats.sim_builds += 1
        self._observe("simulation", "build")
        with trace("cache.build", artifact="simulation"):
            self.stats.candidates_builds += 1
            self._observe("candidates", "build")
            with trace("cache.build", artifact="candidates"):
                candidates = compute_candidates(
                    pattern, self.graph, base_source=self._base_source()
                )
            result = maximal_simulation(pattern, self.graph, candidates)
        entry.simulation = result
        entry.owns_rows = False
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
        entry = self._entry(pattern)
        cached = entry.evaluations.get(output_node)
        if cached is not None:
            self.stats.paircsr_hits += 1
            self._observe("pair_csr", "hit")
            return cached, True
        self.stats.paircsr_builds += 1
        self._observe("pair_csr", "build")
        with trace("cache.build", artifact="pair_csr"):
            built = build_evaluation(pattern, self.graph, simulation.sim, output_node)
        entry.evaluations[output_node] = built
        return built, False

    def ranking_context(self, pattern: Pattern) -> RankingContext:
        """A :class:`RankingContext` over the session's evaluation.

        Serves the find-all-then-rank family (``Match``, ``TopKDiv``).
        Its relevant sets are views of the :meth:`pair_csr` evaluation
        the top-k queries of the pattern use, memo included.
        """
        entry = self._entry(pattern)
        cached = entry.contexts.get(pattern.output_node)
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
        entry.contexts[pattern.output_node] = context
        return context

    def cached_result(self, key: tuple[Any, ...]) -> Any:
        """A previously stored query result, or ``None``.

        ``key[0]`` is the pattern's :func:`pattern_structure_key`.  A
        stored answer is dropped with the pattern's evaluations, so it
        never outlives the relation it was computed on.
        """
        entry = self._entries.get(key[0])
        cached = entry.results.get(key) if entry is not None else None
        if cached is not None:
            self.stats.result_hits += 1
            self._observe("result", "hit")
        return cached

    def store_result(self, pattern: Pattern, key: tuple[Any, ...], result: Any) -> None:
        """Store a result of ``pattern`` under ``key`` (see :meth:`cached_result`)."""
        self.stats.result_builds += 1
        self._observe("result", "build")
        self._entry(pattern).results[key] = result


def _ranking_affected(
    pattern: Pattern,
    sim: list[set[int]],
    op: "DeltaOp",
    outcome: delta_sim.DeltaOutcome,
) -> bool:
    """Can ``op`` change a pattern's rankings when its relation did not move?

    Relevant sets walk the match-pair graph, whose edges join matching
    pairs across a pattern edge: an edge op between nodes that match
    adjacent query nodes adds or removes such an edge even when ``sim``
    itself is stable.  Node ops that edited a candidate row shift the
    normalisation constant ``C_uo``; ``pairs_touched`` counts exactly
    those edits.
    """
    if op.kind in (ADD_EDGE, REMOVE_EDGE):
        for u, u_child in pattern.edges():
            if op.src in sim[u] and op.dst in sim[u_child]:
                return True
        return False
    return outcome.pairs_touched > 0
