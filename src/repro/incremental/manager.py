"""The per-graph registry of :class:`MatchView` handles.

A :class:`MatchViewManager` names the views registered on one graph.
It owns one :class:`~repro.session.cache.SessionCache`, which subscribes
to the graph's change events and repairs every registered pattern's
relation at each write, so views of equal patterns share one relation.

One manager exists per graph; :meth:`MatchViewManager.for_graph` hands
out the shared instance, stored in ``graph.extensions`` — the graph and
its manager form a plain reference cycle, so dropping the last user
reference to the graph lets the garbage collector reclaim both together
with every registered view.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import MatchingError
from repro.graph.delta import DeltaOp
from repro.graph.digraph import Graph
from repro.incremental.view import MatchView
from repro.patterns.pattern import Pattern

_EXTENSION_KEY = "incremental:match-view-manager"


class MatchViewManager:
    """Names the match views of one graph over one shared cache.

    >>> from repro.datasets.examples import figure1
    >>> fig = figure1()
    >>> manager = MatchViewManager(fig.graph.thaw())
    >>> view = manager.register(fig.pattern, k=2, name="q")
    >>> manager.view("q") is view
    True
    """

    def __init__(self, graph: Graph) -> None:
        from repro.session.cache import SessionCache

        self.graph = graph
        self.views: dict[str, MatchView] = {}
        self.cache = SessionCache(graph)
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
        **view_options: Any,
    ) -> MatchView:
        """Materialize and register a view for ``pattern``.

        ``name`` defaults to ``view-<n>``; registering an existing name
        replaces the old view.  Keyword options are forwarded to
        :class:`MatchView` (``lam``, ``relevance_fn``).
        """
        self._check_open()
        if name is None:
            name = f"view-{len(self.views)}"
            while name in self.views:
                name = f"view-{len(self.views)}-{name}"
        view = MatchView(pattern, self.cache, k=k, name=name, **view_options)
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

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the graph and drop all views."""
        if not self._closed:
            self.cache.close()
            self.views.clear()
            if self.graph.extensions.get(_EXTENSION_KEY) is self:
                del self.graph.extensions[_EXTENSION_KEY]
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise MatchingError("manager is closed")

    def __repr__(self) -> str:
        return f"MatchViewManager(views={sorted(self.views)}, graph={self.graph!r})"
