"""Incremental matching: materialized match views under graph updates.

The batch algorithms of this library answer one query against one frozen
graph.  This subsystem keeps a registered pattern's match relation —
and its top-k / diversified ranking — *alive* while the graph mutates:

* :mod:`repro.incremental.delta_sim` repairs a maximal simulation after
  one update (localized re-expansion on edge insertion, seeded
  refinement on deletion, a full-recompute signal when the touched
  frontier is no longer local);
* :mod:`repro.incremental.affected` decides by labels which patterns an
  update can touch.

:class:`~repro.session.cache.SessionCache` runs both at each change
event for every pattern it caches — the one write path, shared by
sessions and views:

* :class:`~repro.incremental.view.MatchView` is a named handle on one
  pattern of a cache, ranking from the maintained relation;
* :class:`~repro.incremental.manager.MatchViewManager` is the per-graph
  registry of views, over one cache of its own.

Entry points: ``repro.api.register_view`` / ``repro.api.update_graph``,
``MatchSession.register_view``, the ``repro update-stream`` CLI command,
and ``benchmarks/bench_incremental.py`` for the update-throughput
numbers.
"""

from repro.incremental.delta_sim import (
    DeltaOutcome,
    attrs_changed,
    edge_added,
    edge_removed,
    node_added,
    node_removed,
)
from repro.incremental.manager import MatchViewManager
from repro.incremental.view import MatchView

__all__ = [
    "DeltaOutcome",
    "MatchView",
    "MatchViewManager",
    "attrs_changed",
    "edge_added",
    "edge_removed",
    "node_added",
    "node_removed",
]
