"""Session-scoped serving: shared snapshots, configs, batched queries.

Public names:

* :class:`ExecutionConfig` — one validated object for every engine
  toggle (the home of the toggle-default chain);
* :class:`MatchSession` — pins a graph + compiled snapshot generation
  and owns the cross-query caches;
* :class:`QuerySpec` / :class:`QueryHandle` — batch query descriptions
  and lazy results;
* :class:`SessionCache` — the shared artifact store (advanced use:
  inject into engine wrappers directly via their ``cache=`` parameter);
* :class:`WorkerPool` / :class:`WorkerBatchStats` — the multiprocess
  serving tier behind ``ExecutionConfig(workers=N)`` (see
  :mod:`repro.session.parallel`).
"""

from repro.session.cache import SessionCache, SessionCacheStats, pattern_structure_key
from repro.session.config import ExecutionConfig
from repro.session.parallel import WorkerBatchStats, WorkerPool, worker_config
from repro.session.session import (
    DIVERSIFY_METHODS,
    QUERY_MODES,
    MatchSession,
    QueryHandle,
    QuerySpec,
    SessionStats,
)

__all__ = [
    "DIVERSIFY_METHODS",
    "QUERY_MODES",
    "ExecutionConfig",
    "MatchSession",
    "QueryHandle",
    "QuerySpec",
    "SessionCache",
    "SessionCacheStats",
    "SessionStats",
    "WorkerBatchStats",
    "WorkerPool",
    "pattern_structure_key",
    "worker_config",
]
