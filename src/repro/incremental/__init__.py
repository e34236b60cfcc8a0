"""Incremental matching: the delta routines that repair ``M(Q, G)``.

The batch algorithms of this library answer one query against one frozen
graph.  Under writes, a pattern's match relation is repaired op by op
instead of recomputed:

* :mod:`repro.incremental.delta_sim` repairs a maximal simulation after
  one update (localized re-expansion on edge insertion, seeded
  refinement on deletion, a full-recompute signal when the touched
  frontier is no longer local);
* :mod:`repro.incremental.affected` decides by labels which patterns an
  update can touch.

:class:`~repro.session.cache.SessionCache` runs both at each change
event for every pattern it caches — the one write path.  Update streams
are served by a ``MatchSession(graph, on_mutation="refresh")``, whose
queries rank from the repaired relation; the ``repro update-stream``
CLI command replays a delta file that way.
"""

from repro.incremental.delta_sim import (
    DeltaOutcome,
    attrs_changed,
    edge_added,
    edge_removed,
    node_added,
    node_removed,
)

__all__ = [
    "DeltaOutcome",
    "attrs_changed",
    "edge_added",
    "edge_removed",
    "node_added",
    "node_removed",
]
