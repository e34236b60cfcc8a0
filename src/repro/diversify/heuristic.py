"""``TopKDH`` / ``TopKDAGDH`` — diversified top-k with early termination
(paper Section 5.2, Theorem 5(3)).

Runs the same propagation engine as ``TopK`` with a
:class:`repro.topk.policies.DiversifiedPolicy`: after each batch the newly
confirmed matches of ``uo`` are greedily swapped into the answer set when
they increase ``F''`` — the diversification function evaluated on the
in-flight state (``v.l / C_uo`` for relevance; Jaccard over the partial
relevant sets for distance).  Terminates via Proposition 3, so it inspects
no more matches than ``TopK`` does.  Trying every swap for a new match
costs k distance evaluations, plus ``k(k-1)/2`` per batch to score the
current set; the final replay over the inspected matches costs the same.

No approximation guarantee (it is a heuristic), but Section 6 measures
``F(S')`` at ≥ 77 % of ``TopKDiv``'s on Amazon — our benchmark
``bench_fig5i_quality_div`` checks the same ratio band.
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
from repro.topk.selection import GreedySelection, RandomSelection

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
    bound_strategy: str = "sim",
    batch_size: int | None = None,
    candidates: CandidateSets | None = None,
    presimulate: bool = True,
    use_csr: bool | None = None,
    scc_incremental: bool | None = None,
    rset_bitset: bool | None = None,
    config: ExecutionConfig | None = None,
    cache: "SessionCache | None" = None,
) -> TopKResult:
    """Run the early-terminating diversified heuristic.

    The algorithm name in the result follows the paper's convention:
    ``TopKDAGDH`` on DAG patterns, ``TopKDH`` otherwise.  Execution
    toggles arrive as one :class:`ExecutionConfig` (``config=``) or as
    the legacy kwargs, adapted onto the same config —
    :meth:`ExecutionConfig.resolved` owns the defaulting chain, so
    ``optimized=False`` is the dict reference path with random seed
    selection.  With ``rset_bitset`` resolved on, the diversified
    objective's Jaccard terms run word-parallel over the frozen bitset
    views.  ``cache`` injects a session's shared artifact store.
    """
    obj = objective if objective is not None else DiversificationObjective(lam=lam, k=k)
    if obj.k != k:
        raise MatchingError(f"objective is configured for k={obj.k}, not k={k}")
    cfg = ExecutionConfig.adapt(
        config,
        optimized=optimized,
        seed=seed,
        bound_strategy=bound_strategy,
        batch_size=batch_size,
        presimulate=presimulate,
        use_csr=use_csr,
        scc_incremental=scc_incremental,
        rset_bitset=rset_bitset,
    )
    name = "TopKDAGDH" if pattern.is_dag() else "TopKDH"
    strategy = GreedySelection() if cfg.optimized else RandomSelection(cfg.seed)
    with instrumentation(cfg):
        started = time.perf_counter()
        engine = TopKEngine(
            pattern,
            graph,
            k,
            policy=DiversifiedPolicy(obj),
            strategy=strategy,
            candidates=candidates,
            algorithm_name=name,
            config=cfg,
            cache=cache,
        )
        result = engine.run()
        result.stats.elapsed_seconds = time.perf_counter() - started
        return record_run(result, pattern, k, cfg)
