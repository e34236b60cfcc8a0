"""The ``Match`` baseline (paper Section 4, "find-all-match" strategy).

Given ``Q`` with output node ``uo``, ``G`` and ``k``:

1. compute the whole of ``M(Q, G)`` with the simulation fixpoint of
   [11, 18];
2. compute ``δr`` for every match of ``uo`` (via relevant sets on the
   match-pair graph, :mod:`repro.simulation.relevant`);
3. sort and take the k most relevant matches.

``O((|Q| + |V|)(|V| + |E|))`` time, no early termination — this is the
algorithm every figure of Section 6 compares against, and it doubles as
the ground-truth oracle in the test-suite.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.graph.digraph import Graph
from repro.obs import record_run
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.relevance import (
    CardinalityRelevance,
    RelevanceFunction,
    top_k_by_relevance,
)
from repro.session.config import ExecutionConfig
from repro.topk.result import EngineStats, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import SessionCache


def match_baseline(
    pattern: Pattern,
    graph: Graph,
    k: int,
    relevance_fn: RelevanceFunction | None = None,
    context: RankingContext | None = None,
    config: ExecutionConfig | None = None,
    cache: "SessionCache | None" = None,
) -> TopKResult:
    """Run the ``Match`` algorithm; returns exact top-k with exact scores.

    ``context`` may be supplied to reuse an existing full evaluation (the
    diversified baseline does this to avoid recomputing ``M(Q, G)``).
    ``config=`` carries the slow-query threshold (``Match`` visits
    every match, so ``optimized`` does not apply), and ``cache``
    serves the context from a session, over the evaluation its top-k
    queries share.
    """
    if k < 1:
        raise MatchingError(f"k must be positive; got {k}")
    pattern.validate()
    started = time.perf_counter()
    fn = relevance_fn if relevance_fn is not None else CardinalityRelevance()

    if context is None:
        if cache is not None:
            context = cache.ranking_context(pattern)
        else:
            context = RankingContext(pattern, graph)
    stats = EngineStats()
    if not context.simulation.total:
        stats.elapsed_seconds = time.perf_counter() - started
        stats.total_matches = 0
        return record_run(
            TopKResult([], {}, "Match", stats), pattern, k, config
        )

    selected = top_k_by_relevance(context, k, fn)
    fn.prepare(context)
    scores = {v: fn.value(context, v, context.relevant[v]) for v in selected}

    stats.inspected_matches = len(context.matches)
    stats.total_matches = len(context.matches)
    stats.elapsed_seconds = time.perf_counter() - started
    return record_run(
        TopKResult(selected, scores, "Match", stats), pattern, k, config
    )
