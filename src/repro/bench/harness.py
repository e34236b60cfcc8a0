"""Experiment harness: one entry point per algorithm, uniform records.

Section 6 measures every algorithm along the same two axes — wall-clock
time and the match ratio ``MR`` — across datasets, pattern sizes, ``k``
and ``λ``.  The harness runs any of the paper's algorithms by name and
returns a flat :class:`RunRecord` the reporting layer and the benchmark
suite can aggregate.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.diversify.approx import top_k_diversified_approx
from repro.diversify.heuristic import top_k_diversified_heuristic
from repro.errors import BenchmarkError
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag
from repro.topk.match_all import match_baseline
from repro.topk.result import TopKResult

ALGORITHMS = (
    "Match",
    "TopK",
    "TopKnopt",
    "TopKDAG",
    "TopKDAGnopt",
    "TopKDiv",
    "TopKDH",
    "TopKDAGDH",
)


@dataclass
class RunRecord:
    """One algorithm execution, flattened for tables and plots."""

    algorithm: str
    pattern_shape: tuple[int, int]
    k: int
    lam: float | None
    elapsed_seconds: float
    inspected_matches: int
    total_matches: int | None
    terminated_early: bool
    objective_value: float | None
    matches: list[int] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def match_ratio(self) -> float | None:
        """``MR = |M^t_u| / |Mu|`` once the denominator is known."""
        if not self.total_matches:
            return None
        return self.inspected_matches / self.total_matches


def run_algorithm(
    name: str,
    pattern: Pattern,
    graph: Graph,
    k: int,
    lam: float = 0.5,
    total_matches: int | None = None,
    **options: Any,
) -> RunRecord:
    """Run one of the paper's algorithms by name.

    ``total_matches`` fills the MR denominator for early-terminating
    algorithms (computed once per pattern by the caller via ``Match``).
    """
    if name not in ALGORITHMS:
        raise BenchmarkError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    started = time.perf_counter()
    result = _dispatch(name, pattern, graph, k, lam, options)
    elapsed = time.perf_counter() - started
    stats = result.stats
    return RunRecord(
        algorithm=name,
        pattern_shape=pattern.shape,
        k=k,
        lam=lam if name in ("TopKDiv", "TopKDH", "TopKDAGDH") else None,
        elapsed_seconds=elapsed,
        inspected_matches=stats.inspected_matches,
        total_matches=stats.total_matches if stats.total_matches is not None else total_matches,
        terminated_early=stats.terminated_early,
        objective_value=result.objective_value,
        matches=list(result.matches),
        extra={
            # Cache-effectiveness counters (snapshot / simulation /
            # evaluation hits vs rebuilds; hits come from
            # the graph-level snapshot cache and, under a MatchSession,
            # the session's shared artifact store).
            **stats.cache_counters(),
        },
    )


def _dispatch(
    name: str,
    pattern: Pattern,
    graph: Graph,
    k: int,
    lam: float,
    options: dict[str, Any],
) -> TopKResult:
    if name == "Match":
        return match_baseline(pattern, graph, k, **options)
    if name == "TopK":
        return top_k(pattern, graph, k, optimized=True, **options)
    if name == "TopKnopt":
        return top_k(pattern, graph, k, optimized=False, **options)
    if name == "TopKDAG":
        return top_k_dag(pattern, graph, k, optimized=True, **options)
    if name == "TopKDAGnopt":
        return top_k_dag(pattern, graph, k, optimized=False, **options)
    if name == "TopKDiv":
        return top_k_diversified_approx(pattern, graph, k, lam=lam, **options)
    if name in ("TopKDH", "TopKDAGDH"):
        return top_k_diversified_heuristic(pattern, graph, k, lam=lam, **options)
    raise BenchmarkError(f"unhandled algorithm {name!r}")


def exact_objective(
    pattern: Pattern,
    graph: Graph,
    matches: list[int],
    k: int,
    lam: float,
    context: RankingContext | None = None,
) -> float:
    """``F(S)`` of a returned set, evaluated on exact relevant sets.

    Used by the quality experiment (Fig. 5(i)) to compare ``TopKDiv`` and
    ``TopKDH`` on equal footing; both report this value as their
    ``objective_value``.
    """
    ctx = context if context is not None else RankingContext(pattern, graph)
    objective = DiversificationObjective(lam=lam, k=k)
    objective.prepare(ctx)
    return objective.score_matches(ctx, matches)


def peak_memory_bytes(fn: Callable[[], Any]) -> int:
    """Peak traced heap allocation (bytes) while running ``fn``.

    tracemalloc adds substantial per-allocation overhead, so callers
    must run this as a *separate* pass, never inside timed rounds.  When
    tracing is already active (e.g. nested benchmarks) the peak counter
    is reset instead of restarting the tracer, and tracing is left on.
    """
    nested = tracemalloc.is_tracing()
    if nested:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not nested:
            tracemalloc.stop()
    return peak


def averaged(records: list[RunRecord]) -> dict[str, float]:
    """Mean elapsed / MR over repeated runs of the same configuration."""
    if not records:
        return {"elapsed_seconds": 0.0, "match_ratio": 0.0}
    elapsed = sum(r.elapsed_seconds for r in records) / len(records)
    ratios = [r.match_ratio for r in records if r.match_ratio is not None]
    return {
        "elapsed_seconds": elapsed,
        "match_ratio": sum(ratios) / len(ratios) if ratios else float("nan"),
    }
