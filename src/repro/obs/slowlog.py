"""The slow-query log: one WARNING line per query over threshold.

Every execution path — one-shot ``api.*`` shims, direct engine wrapper
calls, :meth:`MatchSession.run_batch` — funnels through the five engine
wrappers (``top_k`` / ``top_k_dag`` / ``top_k_diversified_heuristic`` /
``top_k_diversified_approx`` / ``match_baseline``), and each of them
calls :func:`maybe_log_slow_query` on completion, so single-call users
get the same signal a serving batch does.

The threshold is ``ExecutionConfig.slow_query_seconds``; ``None`` (the
default) turns the log off.  Logging goes through the stdlib
``repro.slowquery`` logger — wire a handler (or ``logging.basicConfig``)
to see it; nothing is printed by default.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.patterns.pattern import Pattern
    from repro.session.config import ExecutionConfig

logger = logging.getLogger("repro.slowquery")


def maybe_log_slow_query(
    algorithm: str,
    pattern: "Pattern",
    k: int,
    elapsed_seconds: float,
    config: "ExecutionConfig | None" = None,
) -> bool:
    """Log ``algorithm``'s run if it breached ``config``'s threshold.

    Returns whether a line was emitted (tests and callers can branch on
    it).  Disabled (no config or no threshold) costs one attribute
    check — no formatting, no logger dispatch.
    """
    threshold = None if config is None else config.slow_query_seconds
    if threshold is None or elapsed_seconds < threshold:
        return False
    shape = pattern.shape
    logger.warning(
        "slow query: %s |Q|=(%d,%d) k=%d took %.4fs (threshold %.4fs)",
        algorithm,
        shape[0],
        shape[1],
        k,
        elapsed_seconds,
        threshold,
    )
    return True
