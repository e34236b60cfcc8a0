"""``TopK`` — early-terminating top-k matching for general (cyclic)
patterns (paper Section 4.2, Fig. 3).

Configuration wrapper over :class:`repro.topk.engine.TopKEngine`: the
evaluation condenses the pair-cycles that run through nontrivial pattern
SCCs, whose members share one relevant set (Example 8), and visits the
output node's matches in bound order until Proposition 3 holds.

Works on DAG patterns too (every SCC is then trivial), which is how the
paper describes ``TopK`` extending ``TopKDAG``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

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


def top_k(
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
    """Find top-k matches of the output node of any pattern.

    Execution settings arrive either as one :class:`ExecutionConfig`
    (``config=``) or as the kwargs ``optimized`` / ``seed``, which the
    adapter maps onto the same config.  ``optimized=False`` is the
    paper's ``TopKnopt``: matches are visited in seeded random order.
    ``cache`` injects a session's shared artifact store (simulation and
    evaluation).
    """
    cfg = ExecutionConfig.adapt(config, optimized=optimized, seed=seed)
    name = "TopK" if cfg.optimized else "TopKnopt"
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
