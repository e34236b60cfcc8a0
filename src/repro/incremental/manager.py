"""Multiplexing many :class:`MatchView` registrations over one graph.

The :class:`MatchViewManager` owns the single change-event subscription
on a graph and fans each :class:`repro.graph.delta.DeltaOp` out to the
registered views — but only to those whose pattern labels the op can
affect (:meth:`MatchView.affected_by`), so a busy graph with many
registered patterns pays per update only for the views that could
actually change.  It also attaches the targeted descendant-index
invalidation hook of :mod:`repro.index.invalidation`.

One manager exists per graph; :meth:`MatchViewManager.for_graph` hands
out the shared instance, stored in ``graph.extensions`` — the graph and
its manager form a plain reference cycle, so dropping the last user
reference to the graph lets the garbage collector reclaim both together
with every registered view.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import MatchingError
from repro.graph.delta import DeltaOp
from repro.graph.digraph import Graph
from repro.incremental.view import MatchView
from repro.index.invalidation import attach_index_invalidation
from repro.patterns.pattern import Pattern

_EXTENSION_KEY = "incremental:match-view-manager"


class MatchViewManager:
    """Dispatches graph change events to the registered match views.

    >>> from repro.datasets.examples import figure1
    >>> fig = figure1()
    >>> manager = MatchViewManager(fig.graph.thaw())
    >>> view = manager.register(fig.pattern, k=2, name="q")
    >>> manager.view("q") is view
    True
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.views: dict[str, MatchView] = {}
        self._unsubscribe = graph.add_listener(self._on_op)
        self._detach_index_hook = attach_index_invalidation(graph)
        self._closed = False

    @classmethod
    def for_graph(cls, graph: Graph) -> "MatchViewManager":
        """The shared manager of ``graph`` (created on first use)."""
        manager = graph.extensions.get(_EXTENSION_KEY)
        if manager is None or manager._closed:
            manager = cls(graph)
            graph.extensions[_EXTENSION_KEY] = manager
        return manager

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        pattern: Pattern,
        k: int = 10,
        name: str | None = None,
        **view_options,
    ) -> MatchView:
        """Materialize and register a view for ``pattern``.

        ``name`` defaults to ``view-<n>``; registering an existing name
        replaces the old view.  Keyword options are forwarded to
        :class:`MatchView` (``lam``, ``relevance_fn``,
        ``recompute_threshold``, ``cache``).
        """
        self._check_open()
        if name is None:
            name = f"view-{len(self.views)}"
            while name in self.views:
                name = f"view-{len(self.views)}-{name}"
        view = MatchView(pattern, self.graph, k=k, name=name, **view_options)
        self.views[name] = view
        return view

    def unregister(self, name: str) -> None:
        """Drop the view registered under ``name``."""
        if name not in self.views:
            raise MatchingError(f"no view named {name!r}")
        del self.views[name]

    def view(self, name: str) -> MatchView:
        """The view registered under ``name``."""
        try:
            return self.views[name]
        except KeyError:
            raise MatchingError(f"no view named {name!r}") from None

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_delta(self, ops: Iterable[DeltaOp]) -> list[int | None]:
        """Apply a batch of ops to the graph.

        Pure convenience: mutations reach the views through the graph's
        change events either way, so ``graph.apply_delta`` is
        equivalent.  Returns the per-op results (assigned node ids for
        ``add_node`` ops).
        """
        self._check_open()
        return self.graph.apply_delta(ops)

    def _on_op(self, op: DeltaOp) -> None:
        for view in self.views.values():
            if view.affected_by(op):
                view.apply(op)
            else:
                view.stats.ops_skipped += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the graph and drop all views."""
        if not self._closed:
            self._unsubscribe()
            self._detach_index_hook()
            self.views.clear()
            if self.graph.extensions.get(_EXTENSION_KEY) is self:
                del self.graph.extensions[_EXTENSION_KEY]
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise MatchingError("manager is closed")

    def __repr__(self) -> str:
        return f"MatchViewManager(views={sorted(self.views)}, graph={self.graph!r})"
