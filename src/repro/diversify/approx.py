"""``TopKDiv`` — the 2-approximation for diversified top-k matching
(paper Section 5.1, Theorem 5(2)).

The algorithm:

1. compute the whole of ``M(Q, G)``, the relevance ``δ'r`` and the
   distances ``δd`` of all matches of ``uo`` (i.e. it pays the full
   ``Match`` cost — no early termination);
2. ``⌊k/2⌋`` times, pick the pair ``{v1, v2}`` maximising::

       F'(v1, v2) = (1-λ)/(k-1) (δ'r(v1) + δ'r(v2)) + 2λ/(k-1) δd(v1, v2)

   and move it into ``S``;
3. if ``k`` is odd, add the single match maximising ``F(S ∪ {v})``.  For
   ``k ≥ 3`` that is the match maximising ``Σ_{s ∈ S} F'(v, s)``, which
   equals ``F(S ∪ {v}) - F(S)`` plus ``(1-λ)/(k-1) Σ_{s ∈ S} δ'r(s)``,
   the same for every ``v``; for ``k = 1`` it is the match maximising
   ``(1-λ) δ'r(v)``.

Because ``Σ_{pairs of S} F' = F(S)``, this simulates the greedy MAXDISP
2-approximation of Hassin et al., hence ``F(S) ≥ F(S*) / 2``.  Each
``F'`` is evaluated once per pair of matches.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.graph.digraph import Graph
from repro.obs import instrumentation, record_run
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.session.config import ExecutionConfig
from repro.topk.result import EngineStats, TopKResult
from repro.diversify.maxdisp import greedy_max_dispersion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import SessionCache


def top_k_diversified_approx(
    pattern: Pattern,
    graph: Graph,
    k: int,
    lam: float = 0.5,
    objective: DiversificationObjective | None = None,
    context: RankingContext | None = None,
    optimized: bool = True,
    use_csr: bool | None = None,
    scc_incremental: bool | None = None,
    rset_bitset: bool | None = None,
    config: "ExecutionConfig | None" = None,
    cache: "SessionCache | None" = None,
) -> TopKResult:
    """Run ``TopKDiv``; returns a set with ``F(S) ≥ F(S*) / 2``.

    ``objective`` overrides the default (normalised δ'r + Jaccard δd) with
    a generalised ``F*`` (Proposition 6 preserves the ratio).  ``context``
    reuses an existing full evaluation.  ``optimized=False`` forces the
    dict-of-sets reference simulation.

    The engine-family toggles (and ``config=`` carrying them) are
    accepted for API symmetry, so facade callers can pass one option
    set to either diversification method: the resolved ``use_csr``
    selects the full-evaluation simulation path, while
    ``scc_incremental`` / ``rset_bitset`` pick in-flight engine
    machinery TopKDiv does not run (it ranks over the context's exact
    relevant sets) and are no-ops here.  ``cache`` (a session's
    artifact store) serves the full evaluation as a shared
    :class:`RankingContext`.
    """
    cfg = ExecutionConfig.adapt(
        config,
        optimized=optimized,
        use_csr=use_csr,
        scc_incremental=scc_incremental,
        rset_bitset=rset_bitset,
    ).resolved()
    optimized = cfg.use_csr
    if k < 1:
        raise MatchingError(f"k must be positive; got {k}")
    pattern.validate()
    started = time.perf_counter()

    with instrumentation(cfg):
        if context is None:
            if cache is not None:
                context = cache.ranking_context(pattern, optimized)
            else:
                context = RankingContext(pattern, graph, optimized=optimized)
        stats = EngineStats()
        if not context.simulation.total:
            stats.total_matches = 0
            stats.elapsed_seconds = time.perf_counter() - started
            return record_run(
                TopKResult([], {}, "TopKDiv", stats), pattern, k, cfg
            )

        obj = objective if objective is not None else DiversificationObjective(lam=lam, k=k)
        if obj.k != k:
            raise MatchingError(f"objective is configured for k={obj.k}, not k={k}")
        obj.prepare(context)

        matches = context.matches
        relevant = context.relevant

        def pair_weight(v1: int, v2: int) -> float:
            return obj.pair_objective(context, v1, relevant[v1], v2, relevant[v2])

        def single_weight(v: int) -> float:
            return (1.0 - obj.lam) * obj.relevance.value(context, v, relevant[v])

        # The pair weights to S already carry v's relevance term, so the
        # singleton weight counts only when S is empty (k = 1).
        selected = greedy_max_dispersion(
            matches, k, pair_weight, single_weight if k == 1 else None
        )

        scores = {v: obj.relevance.value(context, v, relevant[v]) for v in selected}
        objective_value = obj.score_matches(context, selected)
        stats.inspected_matches = len(matches)
        stats.total_matches = len(matches)
        stats.elapsed_seconds = time.perf_counter() - started
        return record_run(
            TopKResult(selected, scores, "TopKDiv", stats, objective_value),
            pattern,
            k,
            cfg,
        )
