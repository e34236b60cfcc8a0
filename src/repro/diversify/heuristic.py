"""``TopKDH`` / ``TopKDAGDH`` — diversified top-k with early termination
(paper Section 5.2, Theorem 5(3)).

Runs the same engine as ``TopK`` with a
:class:`repro.topk.policies.DiversifiedPolicy`: the output node's
matches are visited in bound order, each with its exact relevant set,
and greedily swapped into the answer set when they increase ``F`` (the
normalised relevance ``δ'r`` and the Jaccard distance of Section 3.3).
Every ``⌈|Mu|/64⌉`` visits the policy tests Proposition 3 on the
relevance of its set, so it inspects no more matches than a full pass.
Trying every swap for a new match costs k distance evaluations, plus
``k(k-1)/2`` per integration to score the current set; the final
replay over the visited matches costs the same.

No approximation guarantee (it is a heuristic), but Section 6 measures
``F(S')`` at ≥ 77 % of ``TopKDiv``'s on Amazon — our benchmark
``bench_fig5i_quality_div`` checks the same ratio band.  The reported
``objective_value`` is ``F`` of the returned set.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.graph.digraph import Graph
from repro.obs import instrumentation, record_run
from repro.patterns.pattern import Pattern
from repro.ranking.diversification import DiversificationObjective
from repro.session.config import ExecutionConfig
from repro.simulation.candidates import CandidateSets
from repro.topk.engine import TopKEngine
from repro.topk.policies import DiversifiedPolicy
from repro.topk.result import TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import SessionCache


def top_k_diversified_heuristic(
    pattern: Pattern,
    graph: Graph,
    k: int,
    lam: float = 0.5,
    objective: DiversificationObjective | None = None,
    optimized: bool = True,
    seed: int = 0,
    candidates: CandidateSets | None = None,
    config: ExecutionConfig | None = None,
    cache: "SessionCache | None" = None,
) -> TopKResult:
    """Run the early-terminating diversified heuristic.

    The algorithm name in the result follows the paper's convention:
    ``TopKDAGDH`` on DAG patterns, ``TopKDH`` otherwise.  Execution
    settings arrive as one :class:`ExecutionConfig` (``config=``) or as
    the kwargs ``optimized`` / ``seed``, adapted onto the same config;
    ``optimized=False`` visits in seeded random order.  ``cache``
    injects a session's shared artifact store.
    """
    obj = objective if objective is not None else DiversificationObjective(lam=lam, k=k)
    if obj.k != k:
        raise MatchingError(f"objective is configured for k={obj.k}, not k={k}")
    cfg = ExecutionConfig.adapt(config, optimized=optimized, seed=seed)
    name = "TopKDAGDH" if pattern.is_dag() else "TopKDH"
    with instrumentation(cfg):
        started = time.perf_counter()
        engine = TopKEngine(
            pattern,
            graph,
            k,
            policy=DiversifiedPolicy(obj),
            candidates=candidates,
            algorithm_name=name,
            config=cfg,
            cache=cache,
        )
        result = engine.run()
        result.stats.elapsed_seconds = time.perf_counter() - started
        return record_run(result, pattern, k, cfg)
