"""Materialized match views: ``M(Q, G)`` kept consistent under updates.

A :class:`MatchView` registers one pattern against one graph and keeps
the maximal simulation — the paper's match relation ``M(Q, G)`` — alive
across graph mutations, repairing it with the delta routines of
:mod:`repro.incremental.delta_sim` instead of recomputing the fixpoint
per query.  Ranking (top-k by relevance, diversified top-k) is
re-derived lazily from the maintained relation, reusing the selection
machinery of :mod:`repro.ranking` and :mod:`repro.diversify`.

The view does *not* subscribe to the graph itself — the
:class:`repro.incremental.manager.MatchViewManager` owns the
subscription and dispatches each change event only to the views whose
pattern labels it can affect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import MatchingError
from repro.graph.delta import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    SET_ATTRS,
    DeltaOp,
)
from repro.graph.digraph import Graph
from repro.incremental import delta_sim
from repro.incremental.affected import PatternLabelSignature
from repro.obs import current_metrics, trace
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.ranking.relevance import (
    CardinalityRelevance,
    RelevanceFunction,
    top_k_by_relevance,
)
from repro.simulation.candidates import CandidateSets, compute_candidates
from repro.simulation.match import SimulationResult, maximal_simulation
from repro.topk.result import EngineStats, TopKResult


@dataclass
class ViewStats:
    """Maintenance counters of one :class:`MatchView`.

    Attributes
    ----------
    ops_applied:
        Change events this view processed.
    ops_skipped:
        Events the manager filtered out by label before reaching the
        delta routines (counted by the manager on the view's behalf).
    incremental_ops:
        Events repaired by delta maintenance.
    full_recomputes:
        Events that fell back to a from-scratch fixpoint (threshold
        overflow, or a ``remove_node`` whose edge events were missed);
        the initial build is not counted.
    pairs_touched:
        Candidate pairs examined by delta maintenance in total.
    relation_changes:
        Events after which the match relation actually differed.
    """

    ops_applied: int = 0
    ops_skipped: int = 0
    incremental_ops: int = 0
    full_recomputes: int = 0
    pairs_touched: int = 0
    relation_changes: int = 0


class MatchView:
    """A materialized ``M(Q, G)`` plus ranking state for one pattern.

    Parameters
    ----------
    pattern, graph:
        The registered query and the (mutable) data graph.
    k:
        Default answer size for :meth:`top_k` / :meth:`diversified`.
    lam:
        Default diversification trade-off ``λ`` for :meth:`diversified`.
    relevance_fn:
        Relevance function ranking :meth:`top_k`; defaults to the
        paper's ``δr`` (relevant-set cardinality).
    recompute_threshold:
        Touched-frontier size above which one update falls back to a
        full fixpoint recompute.  ``None`` picks a size-scaled default
        (roughly the initialisation cost of the from-scratch fixpoint).
    cache:
        Optional :class:`repro.session.SessionCache` (normally injected
        by :meth:`repro.session.MatchSession.register_view`): full
        rebuilds then fetch candidates and the simulation fixpoint
        through the session's shared artifact store, so a view rebuild
        and the session's ad-hoc queries over the same pattern compute
        them once between them.  The view copies what it keeps, so its
        maintained sets never alias the shared artifacts.

    >>> from repro.datasets.examples import figure1
    >>> fig = figure1()
    >>> view = MatchView(fig.pattern, fig.graph.thaw())
    >>> sorted(view.matches()) == sorted(view.top_k(k=100).matches)
    True
    """

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        k: int = 10,
        lam: float = 0.5,
        relevance_fn: RelevanceFunction | None = None,
        recompute_threshold: int | None = None,
        name: str | None = None,
        cache=None,
    ) -> None:
        pattern.validate()
        if k < 1:
            raise MatchingError(f"k must be positive; got {k}")
        self.pattern = pattern
        self.graph = graph
        self.k = k
        self.lam = lam
        self.name = name
        self._cache = cache
        self.relevance_fn = (
            relevance_fn if relevance_fn is not None else CardinalityRelevance()
        )
        self.stats = ViewStats()
        self._threshold = recompute_threshold
        # Label-based affectedness: the pattern's label signature (node
        # labels, ordered edge label pairs, predicated labels).  Shared
        # with the session cache's selective invalidation — see
        # :mod:`repro.incremental.affected` for the wildcard semantics.
        self.signature = PatternLabelSignature.from_pattern(pattern)
        self._can_lists: list[list[int]] = []
        self._can_sets: list[set[int]] = []
        self._sim: list[set[int]] = []
        self._cached_simulation: SimulationResult | None = None
        self._cached_context: RankingContext | None = None
        self._rebuild()

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> int:
        """The effective touched-frontier fallback threshold."""
        if self._threshold is not None:
            return self._threshold
        # Roughly the candidate-pair count of a fresh fixpoint: beyond
        # this much touched state the recompute is no more expensive.
        return max(256, self.pattern.num_edges * max(1, self.graph.num_nodes) // 4)

    @property
    def total(self) -> bool:
        """The paper's match condition: every query node has a match."""
        return self.pattern.num_nodes > 0 and all(self._sim)

    def simulation(self) -> SimulationResult:
        """The maintained relation as a :class:`SimulationResult`.

        The returned object snapshots the current state (sets are
        copied); it stays valid across later updates.
        """
        if self._cached_simulation is None:
            candidates = CandidateSets(
                [list(lst) for lst in self._can_lists],
                [set(s) for s in self._can_sets],
            )
            self._cached_simulation = SimulationResult(
                self.pattern,
                self.graph,
                [set(s) for s in self._sim],
                self.total,
                candidates,
            )
        return self._cached_simulation

    def matches(self) -> set[int]:
        """Current ``Mu(Q, G, uo)`` — matches of the output node."""
        if not self.total:
            return set()
        return set(self._sim[self.pattern.output_node])

    def ranking_context(self) -> RankingContext:
        """A :class:`RankingContext` over the maintained relation.

        Between rebuilds the relation tracks the live graph, whose
        snapshot each write drops; the context's evaluation then gathers
        from the live adjacency instead of recompiling the snapshot for
        every ranking (:func:`~repro.simulation.relevant.build_evaluation`).
        """
        if self._cached_context is None:
            self._cached_context = RankingContext(
                self.pattern, self.graph, simulation=self.simulation()
            )
        return self._cached_context

    def top_k(self, k: int | None = None) -> TopKResult:
        """Top-k matches by relevance, re-ranked from the view state."""
        k = self.k if k is None else k
        started = time.perf_counter()
        ctx = self.ranking_context()
        stats = EngineStats(
            inspected_matches=len(ctx.matches), total_matches=len(ctx.matches)
        )
        if not ctx.simulation.total:
            stats.elapsed_seconds = time.perf_counter() - started
            return TopKResult([], {}, "MatchView", stats)
        fn = self.relevance_fn
        fn.prepare(ctx)
        selected = top_k_by_relevance(ctx, k, fn)
        scores = {v: fn.value(ctx, v, ctx.relevant[v]) for v in selected}
        stats.elapsed_seconds = time.perf_counter() - started
        return TopKResult(selected, scores, "MatchView", stats)

    def diversified(
        self,
        k: int | None = None,
        lam: float | None = None,
        objective: DiversificationObjective | None = None,
    ) -> TopKResult:
        """Diversified top-k (the paper's topKDP) from the view state.

        Runs the ``TopKDiv`` 2-approximation over the maintained
        relation — the relation is already materialized, so the greedy
        selection is the only per-query work.
        """
        from repro.diversify.approx import top_k_diversified_approx

        k = self.k if k is None else k
        lam = self.lam if lam is None else lam
        result = top_k_diversified_approx(
            self.pattern,
            self.graph,
            k,
            lam=lam,
            objective=objective,
            context=self.ranking_context(),
        )
        result.algorithm = "MatchView/TopKDiv"
        return result

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def affected_by(self, op: DeltaOp) -> bool:
        """Can ``op`` possibly change this view's relation?

        Label-based filter: an edge op matters only when some pattern
        edge joins the endpoint labels; a node op only when the node's
        label is a pattern label; an attrs op only when a *predicated*
        query node carries that label.  A wildcard query node matches
        every label — node-op tests treat a wildcard pattern as
        match-all, and edge-pair tests accept a pattern edge whose
        endpoint is the wildcard (a plain ``label in pattern_labels``
        membership test would never match ``"*"`` and would starve
        wildcard views of their update stream).  Delegates to the
        shared :class:`~repro.incremental.affected.PatternLabelSignature`
        — the same test the session cache's selective invalidation
        applies to cached artifacts.
        """
        return self.signature.affects_op(op, self.graph)

    def apply(self, op: DeltaOp) -> delta_sim.DeltaOutcome:
        """Repair the view after ``op`` was applied to the graph.

        Dispatches to the delta-simulation routines, falling back to a
        full recompute when the touched frontier overflows
        :attr:`threshold`.  Ranking caches are dropped whenever the
        relation (or the graph underneath the relevant sets) changed.

        Ops must arrive in graph-event order — the supported path is
        manager dispatch, where ``remove_node`` is preceded by the
        per-edge removal events the graph emits.  A bare ``remove_node``
        whose edge events were skipped is detected when the node still
        matches a query node with pattern children (impossible once its
        edges were processed) and answered with a full rebuild; missed
        *edge* events alone cannot be detected, so don't hand-feed ops.

        Maintenance latency is observable: each call runs under a
        ``view.apply`` span and feeds the ambient registry's
        ``repro_view_apply_seconds`` histogram, labelled by op kind.
        """
        started = time.perf_counter()
        with trace("view.apply", kind=op.kind) as span:
            outcome = self._apply(op)
            if span is not None:
                span.set_attr(
                    changed=outcome.changed,
                    overflowed=outcome.overflowed,
                    pairs_touched=outcome.pairs_touched,
                )
        registry = current_metrics()
        if registry is not None:
            registry.histogram(
                "repro_view_apply_seconds",
                "MatchView delta-maintenance latency by op kind.",
            ).observe(time.perf_counter() - started, kind=op.kind)
        return outcome

    def _apply(self, op: DeltaOp) -> delta_sim.DeltaOutcome:
        self.stats.ops_applied += 1
        pre_rebuild_sim: list[set[int]] | None = None
        if op.kind == ADD_EDGE:
            assert op.src is not None and op.dst is not None
            outcome = delta_sim.edge_added(
                self.pattern, self.graph, self._can_sets, self._sim,
                op.src, op.dst, self.threshold,
            )
        elif op.kind == REMOVE_EDGE:
            assert op.src is not None and op.dst is not None
            outcome = delta_sim.edge_removed(
                self.pattern, self.graph, self._sim, op.src, op.dst, self.threshold
            )
        elif op.kind == ADD_NODE:
            if op.node is None:
                raise MatchingError(
                    "add_node events must carry the assigned node id; "
                    "mutate through the graph so it emits the event"
                )
            outcome = delta_sim.node_added(
                self.pattern, self.graph, self._can_lists, self._can_sets,
                self._sim, op.node,
            )
        elif op.kind == SET_ATTRS:
            assert op.node is not None
            outcome = delta_sim.attrs_changed(
                self.pattern, self.graph, self._can_lists, self._can_sets,
                self._sim, op.node, self.threshold,
            )
        elif op.kind == REMOVE_NODE:
            assert op.node is not None
            if self._edge_events_missed(op.node):
                # The delta routines never ran, so the maintained
                # relation is exactly the pre-rebuild one — keep a copy
                # to compare against, instead of conservatively counting
                # a relation change that may not happen.
                pre_rebuild_sim = [set(s) for s in self._sim]
                outcome = delta_sim.DeltaOutcome(changed=True, overflowed=True)
            else:
                outcome = delta_sim.node_removed(
                    self.pattern, self.graph, self._can_lists, self._can_sets,
                    self._sim, op.node,
                )
        else:  # pragma: no cover - DeltaOp validates kinds
            raise MatchingError(f"unknown delta op kind {op.kind!r}")

        self.stats.pairs_touched += outcome.pairs_touched
        if outcome.overflowed:
            self._rebuild()
            self.stats.full_recomputes += 1
            if pre_rebuild_sim is None:
                # Threshold overflow mid-repair: ``sim`` was left
                # half-repaired, so no trustworthy pre-state exists —
                # count conservatively.
                self.stats.relation_changes += 1
            elif pre_rebuild_sim != self._sim:
                self.stats.relation_changes += 1
            else:
                outcome.changed = False
        else:
            self.stats.incremental_ops += 1
            if outcome.changed:
                self.stats.relation_changes += 1
            if outcome.changed or self._ranking_affected(op, outcome):
                self._cached_simulation = None
                self._cached_context = None
        return outcome

    def _edge_events_missed(self, node: int) -> bool:
        """Did a ``remove_node`` arrive without its per-edge events?

        After the graph strips a node's edges and the view processes
        those events, the node cannot still match a query node with
        pattern children (no successors remain to support the pairs).
        If it does, the caller skipped the edge events and the relation
        may be stale beyond local repair — signal a full rebuild.
        """
        return any(
            node in self._sim[u] and self.pattern.out_degree(u) > 0
            for u in self.pattern.nodes()
        )

    def _ranking_affected(self, op: DeltaOp, outcome: delta_sim.DeltaOutcome) -> bool:
        """Can ``op`` change ranking state when the relation didn't move?

        Relevant sets walk the match-pair graph, whose edges join
        matching pairs across a pattern edge: an edge op between nodes
        that match adjacent query nodes adds/removes such a pair-graph
        edge even when ``sim`` itself is stable.  Node ops that touched
        a candidate set shift the normalisation constant ``C_uo``.
        Everything else leaves the cached ranking valid.
        """
        if op.kind in (ADD_EDGE, REMOVE_EDGE):
            assert op.src is not None and op.dst is not None
            for u, u_child in self.pattern.edges():
                if op.src in self._sim[u] and op.dst in self._sim[u_child]:
                    return True
            return False
        # Node ops: candidate-set membership feeds C_uo (normalised
        # relevance); pairs_touched counts exactly those edits.
        return outcome.pairs_touched > 0

    def refresh(self) -> None:
        """Force a from-scratch rebuild (used by tests and diagnostics)."""
        self._rebuild()
        self.stats.full_recomputes += 1

    def _rebuild(self) -> None:
        with trace("view.rebuild", shared=self._cache is not None):
            self._rebuild_state()

    def _rebuild_state(self) -> None:
        # Both passes run over graph.snapshot() — cached on the graph,
        # so a threshold overflow that rebuilds several registered views
        # compiles the snapshot only once.
        if self._cache is not None:
            # Session-shared rebuild: candidates and the fixpoint come
            # from the session's artifact store (refreshed there if the
            # mutation that triggered this rebuild staled it), so the
            # view and the session's ad-hoc queries compute them once.
            # Copy everything kept — delta maintenance mutates in place.
            candidates, result = self._cache.view_rebuild(self.pattern)
            sim = [set(s) for s in result.sim]
        else:
            candidates = compute_candidates(self.pattern, self.graph)
            sim = maximal_simulation(self.pattern, self.graph, candidates).sim
        self._can_lists = [list(lst) for lst in candidates.lists]
        self._can_sets = [set(s) for s in candidates.sets]
        self._sim = sim
        self._cached_simulation = None
        self._cached_context = None

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "?"
        return (
            f"MatchView(name={label!r}, |Vp|={self.pattern.num_nodes}, "
            f"total={self.total}, |M|={sum(len(s) for s in self._sim)})"
        )
