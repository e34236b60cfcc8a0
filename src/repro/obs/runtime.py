"""The common epilogue of every algorithm wrapper.

Instrumentation sites consult the ambient collectors
(:func:`repro.obs.current_tracer` / :func:`repro.obs.current_metrics`),
which :func:`repro.obs.use_tracer` / :func:`repro.obs.use_metrics`
install; with neither installed every hook is a no-op.
:func:`record_run` is where a finished run meets them: it publishes the
run's :class:`EngineStats` to the ambient registry and feeds the
slow-query log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import current_metrics, publish_engine_stats
from repro.obs.slowlog import maybe_log_slow_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.patterns.pattern import Pattern
    from repro.session.config import ExecutionConfig
    from repro.topk.result import TopKResult


def record_run(
    result: "TopKResult",
    pattern: "Pattern",
    k: int,
    config: "ExecutionConfig | None" = None,
) -> "TopKResult":
    """Publish one finished run and hand the result back unchanged.

    Publishes the run's :class:`EngineStats` to the ambient metrics
    registry (if any) and feeds the slow-query log, so each wrapper's
    last line is simply ``return record_run(result, pattern, k, cfg)``.
    A pooled session calls it in the parent for each result a worker
    executed, since workers run with no collectors and no threshold.
    """
    registry = current_metrics()
    if registry is not None:
        publish_engine_stats(registry, result.stats, result.algorithm)
    maybe_log_slow_query(
        result.algorithm, pattern, k, result.stats.elapsed_seconds, config
    )
    return result
