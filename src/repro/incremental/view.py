"""Materialized match views: ``M(Q, G)`` kept consistent under updates.

A :class:`MatchView` is a named handle on one pattern of a
:class:`~repro.session.cache.SessionCache`.  The cache keeps the
pattern's maximal simulation — the paper's match relation ``M(Q, G)``
— current across graph mutations, repairing it at each change event
with the delta routines of :mod:`repro.incremental.delta_sim` instead
of recomputing the fixpoint per query.  The view reads that relation
and ranks from it (top-k by relevance, diversified top-k), reusing the
selection machinery of :mod:`repro.ranking` and :mod:`repro.diversify`.

Views follow the graph through their cache's subscription: mutate the
graph and read the view.  Register one with
:func:`repro.api.register_view`,
:meth:`~repro.incremental.manager.MatchViewManager.register` or
:meth:`~repro.session.session.MatchSession.register_view`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.ranking.relevance import (
    CardinalityRelevance,
    RelevanceFunction,
    top_k_by_relevance,
)
from repro.simulation.candidates import CandidateSets
from repro.simulation.match import SimulationResult
from repro.topk.result import EngineStats, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.session.cache import SessionCache


class MatchView:
    """A named handle on one pattern's maintained relation and ranking.

    Parameters
    ----------
    pattern:
        The registered query.
    cache:
        The :class:`~repro.session.cache.SessionCache` that keeps the
        relation current; its graph must be mutable.
    k:
        Default answer size for :meth:`top_k` / :meth:`diversified`.
    lam:
        Default diversification trade-off ``λ`` for :meth:`diversified`.
    relevance_fn:
        Relevance function ranking :meth:`top_k`; defaults to the
        paper's ``δr`` (relevant-set cardinality).
    name:
        The view's name in its registry.

    :attr:`stats` holds the cache's repair counters for the pattern
    (:class:`~repro.session.cache.RepairStats`), shared by every view
    of the same pattern structure on the same cache.

    >>> from repro import api
    >>> from repro.datasets.examples import figure1
    >>> fig = figure1()
    >>> view = api.register_view(fig.pattern, fig.graph.thaw())
    >>> sorted(view.matches()) == sorted(view.top_k(k=100).matches)
    True
    """

    def __init__(
        self,
        pattern: Pattern,
        cache: "SessionCache",
        k: int = 10,
        lam: float = 0.5,
        relevance_fn: RelevanceFunction | None = None,
        name: str | None = None,
    ) -> None:
        pattern.validate()
        if k < 1:
            raise MatchingError(f"k must be positive; got {k}")
        self.pattern = pattern
        self.cache = cache
        self.graph = cache.graph
        self.k = k
        self.lam = lam
        self.name = name
        self.relevance_fn = (
            relevance_fn if relevance_fn is not None else CardinalityRelevance()
        )
        self.stats = cache.repair_stats(pattern)
        self._relation()  # materialize now; writes only repair it

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def _relation(self) -> SimulationResult:
        result, _ = self.cache.simulation(self.pattern)
        return result

    @property
    def total(self) -> bool:
        """The paper's match condition: every query node has a match."""
        return self._relation().total

    def simulation(self) -> SimulationResult:
        """The maintained relation as a :class:`SimulationResult`.

        The returned object copies the current state; it stays valid
        across later updates.
        """
        result = self._relation()
        candidates = result.candidates
        return SimulationResult(
            self.pattern,
            self.graph,
            [set(s) for s in result.sim],
            result.total,
            CandidateSets(
                [list(row) for row in candidates.lists],
                [set(row) for row in candidates.sets],
            ),
        )

    def matches(self) -> set[int]:
        """Current ``Mu(Q, G, uo)`` — matches of the output node."""
        result = self._relation()
        if not result.total:
            return set()
        return set(result.sim[self.pattern.output_node])

    def ranking_context(self) -> RankingContext:
        """The cache's :class:`RankingContext` over the maintained relation.

        Read it again after a write: the cache drops a context whose
        relation or match-pair graph the write changed.  Between
        rebuilds the relation tracks the live graph, whose snapshot
        each write drops; the context's evaluation then gathers from the
        live adjacency instead of recompiling the snapshot
        (:func:`~repro.simulation.relevant.build_evaluation`).
        """
        return self.cache.ranking_context(self.pattern)

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

    def refresh(self) -> None:
        """Force a from-scratch rebuild (used by tests and diagnostics)."""
        self.cache.rebuild(self.pattern)

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "?"
        return (
            f"MatchView(name={label!r}, |Vp|={self.pattern.num_nodes}, "
            f"k={self.k})"
        )
