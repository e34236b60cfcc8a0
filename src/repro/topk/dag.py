"""``TopKDAG`` — early-terminating top-k matching for DAG patterns
(paper Section 4.1, Fig. 2).

Thin configuration wrapper over :class:`repro.topk.engine.TopKEngine`.
On a DAG pattern the match-pair graph is acyclic, so the evaluation is
the pair graph itself and no SCC is ever computed; the output node's
matches are visited in bound order until Proposition 3 holds.

The ``optimized`` flag picks the visiting order: descending upper bound
(the published ``TopKDAG``) or seeded random (``TopKDAGnopt`` of
Section 6).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.graph.digraph import Graph
from repro.obs import record_run
from repro.patterns.pattern import Pattern
from repro.ranking.relevance import RelevanceFunction
from repro.session.config import ExecutionConfig
from repro.topk.engine import TopKEngine
from repro.topk.policies import RelevancePolicy
from repro.topk.result import TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import SessionCache


def top_k_dag(
    pattern: Pattern,
    graph: Graph,
    k: int,
    optimized: bool = True,
    seed: int = 0,
    relevance_fn: RelevanceFunction | None = None,
    output_node: int | None = None,
    config: ExecutionConfig | None = None,
    cache: "SessionCache | None" = None,
) -> TopKResult:
    """Find top-k matches of the output node of a DAG pattern.

    Execution settings arrive as one :class:`ExecutionConfig`
    (``config=``) or as the kwargs ``optimized`` / ``seed``, adapted
    onto the same config; ``optimized=False`` is ``TopKDAGnopt``, which
    visits the matches in seeded random order.  ``cache`` injects a
    session's shared artifact store.

    Raises :class:`MatchingError` when the pattern is cyclic — use
    :func:`repro.topk.cyclic.top_k` there.
    """
    if not pattern.is_dag():
        raise MatchingError("TopKDAG requires a DAG pattern; use top_k for cyclic patterns")
    cfg = ExecutionConfig.adapt(config, optimized=optimized, seed=seed)
    name = "TopKDAG" if cfg.optimized else "TopKDAGnopt"
    started = time.perf_counter()
    engine = TopKEngine(
        pattern,
        graph,
        k,
        policy=RelevancePolicy(),
        relevance_fn=relevance_fn,
        algorithm_name=name,
        output_node=output_node,
        config=cfg,
        cache=cache,
    )
    result = engine.run()
    result.stats.elapsed_seconds = time.perf_counter() - started
    return record_run(result, pattern, k, cfg)
