"""Directed, node-labelled data graphs ``G = (V, E, L)`` (paper Section 2.1).

The graph store is the substrate every matching algorithm in this library
runs on.  Nodes are dense integers ``0..n-1``; each node carries an interned
label (its matching key) and an optional attribute dictionary (used by the
predicate patterns of the case studies, e.g. ``C="music"; R>2``).

Design notes
------------
* Adjacency is stored as forward and reverse lists so that both the
  simulation fixpoint (which walks predecessors) and relevant-set
  propagation (which walks successors) are O(degree).
* Duplicate edges are rejected: the paper's ``E ⊆ V × V`` is a set.
* ``freeze()`` converts adjacency lists to tuples and builds the
  label -> nodes index; all matching code paths work on frozen or
  unfrozen graphs alike.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import GraphError
from repro.graph.delta import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    SET_ATTRS,
    DeltaOp,
)
from repro.graph.labels import LabelTable


class Graph:
    """A directed graph with labelled, attributed nodes.

    >>> g = Graph()
    >>> pm = g.add_node("PM")
    >>> db = g.add_node("DB", salary=100)
    >>> g.add_edge(pm, db)
    >>> g.num_nodes, g.num_edges
    (2, 1)
    >>> g.label(db)
    'DB'
    >>> g.attr(db, "salary")
    100
    """

    __slots__ = (
        "labels",
        "_label_of",
        "_out",
        "_in",
        "_edge_set",
        "_attrs",
        "_num_edges",
        "_label_index",
        "_frozen",
        "_removed",
        "_listeners",
        "_invalidators",
        "derived",
        "extensions",
        "__weakref__",
    )

    def __init__(self, label_table: LabelTable | None = None) -> None:
        self.labels: LabelTable = label_table if label_table is not None else LabelTable()
        self._label_of: list[int] = []
        self._out: list[list[int]] = []
        self._in: list[list[int]] = []
        self._edge_set: set[tuple[int, int]] = set()
        self._attrs: dict[int, dict[str, Any]] = {}
        self._num_edges = 0
        self._label_index: dict[int, list[int]] | None = None
        self._frozen = False
        self._removed: set[int] = set()
        self._listeners: list[Callable[[DeltaOp], None]] = []
        self._invalidators: list[Callable[[], None]] = []
        #: Cache for derived per-graph structures (e.g. descendant-count
        #: indexes).  Invalidated on structural mutation — wholesale by
        #: default, or through registered invalidators (see
        #: :meth:`add_invalidator`) when any are attached.
        self.derived: dict[Any, Any] = {}
        #: Persistent per-graph attachments (e.g. the graph's
        #: MatchViewManager).  Unlike :attr:`derived`, never cleared.
        self.extensions: dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # pickling (serving-tier workers receive the graph by value)
    # ------------------------------------------------------------------
    #: Slots that are process-local wiring — event subscriptions, the
    #: derived-structure cache, persistent attachments — and must not
    #: travel to a worker process (listeners are closures over parent
    #: state; derived snapshots are rebuilt on demand from the core
    #: topology, which pickles exactly).
    _TRANSIENT_SLOTS = (
        "_listeners",
        "_invalidators",
        "derived",
        "extensions",
        "__weakref__",
    )

    def __getstate__(self) -> dict:
        """Core topology + labels + attrs only; see ``_TRANSIENT_SLOTS``."""
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._TRANSIENT_SLOTS
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        for name, value in state.items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, label: str, **attrs: Any) -> int:
        """Add a node with ``label`` and optional attributes; return its id."""
        self._check_frozen()
        self._invalidate_caches()
        node = len(self._label_of)
        label_id = self.labels.intern(label)
        self._label_of.append(label_id)
        self._out.append([])
        self._in.append([])
        if attrs:
            self._attrs[node] = dict(attrs)
        if self._label_index is not None:
            self._label_index.setdefault(label_id, []).append(node)
        self._emit(DeltaOp(ADD_NODE, node=node, label=label, attrs=dict(attrs)))
        return node

    def add_nodes(self, labels: Iterable[str]) -> list[int]:
        """Bulk-add nodes with the given labels; return their ids."""
        return [self.add_node(label) for label in labels]

    def add_edge(self, src: int, dst: int) -> None:
        """Add the directed edge ``(src, dst)``.

        Raises :class:`GraphError` on unknown endpoints, self-checks
        duplicates silently (``E`` is a set, re-adding is a no-op).
        """
        self._check_frozen()
        n = len(self._label_of)
        if not (0 <= src < n and 0 <= dst < n):
            raise GraphError(f"edge ({src}, {dst}) references unknown node (n={n})")
        if src in self._removed or dst in self._removed:
            raise GraphError(f"edge ({src}, {dst}) references a removed node")
        if (src, dst) in self._edge_set:
            return
        self._invalidate_caches()
        self._edge_set.add((src, dst))
        self._out[src].append(dst)
        self._in[dst].append(src)
        self._num_edges += 1
        self._emit(DeltaOp(ADD_EDGE, src=src, dst=dst))

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Bulk-add directed edges."""
        for src, dst in edges:
            self.add_edge(src, dst)

    def set_attrs(self, node: int, **attrs: Any) -> None:
        """Set (merge) attributes on ``node``.

        Emits a ``set_attrs`` change event: attribute values feed the
        predicate search conditions of Section 2.2 patterns, so
        registered match views must re-evaluate the node's candidacy.
        Structural caches (descendant counts) are label-based and stay
        valid, so no derived-cache invalidation happens here.
        """
        self._check_node(node)
        self._check_frozen()
        if node in self._removed:
            raise GraphError(f"node {node} is removed")
        self._attrs.setdefault(node, {}).update(attrs)
        self._emit(DeltaOp(SET_ATTRS, node=node, attrs=dict(attrs)))

    # ------------------------------------------------------------------
    # mutation (the incremental subsystem's update API)
    # ------------------------------------------------------------------
    def remove_edge(self, src: int, dst: int) -> None:
        """Remove the directed edge ``(src, dst)``.

        Raises :class:`GraphError` when the edge does not exist (deltas
        are required to be consistent with the graph they update).
        """
        self._check_frozen()
        if (src, dst) not in self._edge_set:
            raise GraphError(f"edge ({src}, {dst}) does not exist")
        self._invalidate_caches()
        self._edge_set.discard((src, dst))
        self._out[src].remove(dst)
        self._in[dst].remove(src)
        self._num_edges -= 1
        self._emit(DeltaOp(REMOVE_EDGE, src=src, dst=dst))

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and all incident edges.

        Node ids stay dense: the slot is tombstoned, not reused.  A
        removed node keeps its label string for diagnostics but leaves
        the label index, ``live_nodes()`` and candidate computation; its
        incident edge removals are emitted individually (so listeners
        maintaining per-edge state see every change) before the final
        ``remove_node`` event.
        """
        self._check_node(node)
        self._check_frozen()
        if node in self._removed:
            raise GraphError(f"node {node} is already removed")
        self._invalidate_caches()
        for dst in list(self._out[node]):
            self.remove_edge(node, dst)
        for src in list(self._in[node]):
            self.remove_edge(src, node)
        self._removed.add(node)
        self._attrs.pop(node, None)
        if self._label_index is not None:
            bucket = self._label_index.get(self._label_of[node])
            if bucket is not None and node in bucket:
                bucket.remove(node)
        # Invalidate again *after* the tombstone lands: listeners on the
        # per-edge removal events above may have rebuilt derived caches
        # (e.g. the CSR snapshot) mid-removal, while the node still
        # counted as live.
        self._invalidate_caches()
        self._emit(DeltaOp(REMOVE_NODE, node=node))

    def apply_delta(self, ops: Iterable[DeltaOp]) -> list[int | None]:
        """Apply a batch of :class:`DeltaOp` in order.

        Returns, per op, the node id assigned by an ``add_node`` op and
        ``None`` for every other kind.  Each constituent mutation emits
        its change event individually, so listeners observe the batch as
        the equivalent op sequence.
        """
        results: list[int | None] = []
        for op in ops:
            if op.kind == ADD_NODE:
                assert op.label is not None
                results.append(self.add_node(op.label, **dict(op.attrs)))
            elif op.kind == REMOVE_NODE:
                assert op.node is not None
                self.remove_node(op.node)
                results.append(None)
            elif op.kind == ADD_EDGE:
                assert op.src is not None and op.dst is not None
                self.add_edge(op.src, op.dst)
                results.append(None)
            elif op.kind == SET_ATTRS:
                assert op.node is not None
                self.set_attrs(op.node, **dict(op.attrs))
                results.append(None)
            else:
                assert op.src is not None and op.dst is not None
                self.remove_edge(op.src, op.dst)
                results.append(None)
        return results

    def add_listener(self, listener: Callable[[DeltaOp], None]) -> Callable[[], None]:
        """Subscribe ``listener`` to change events; returns an unsubscriber.

        Listeners are called synchronously after each mutation with the
        :class:`DeltaOp` describing it (``add_node`` events carry the
        assigned id in ``op.node``).
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def add_invalidator(self, invalidator: Callable[[], None]) -> Callable[[], None]:
        """Register a targeted cache invalidator; returns a detacher.

        While at least one invalidator is registered, structural
        mutations call the invalidators *instead of* blanket-clearing
        :attr:`derived` — entries the invalidators leave alone survive
        the mutation.  Registering one therefore asserts that, between
        them, the registered invalidators drop every mutation-sensitive
        cache (see :func:`repro.index.invalidation.attach_index_invalidation`
        for the descendant-index one).
        """
        self._invalidators.append(invalidator)

        def detach() -> None:
            if invalidator in self._invalidators:
                self._invalidators.remove(invalidator)

        return detach

    def _emit(self, op: DeltaOp) -> None:
        for listener in tuple(self._listeners):
            listener(op)

    def freeze(self) -> "Graph":
        """Make the graph immutable and build the label index; returns self."""
        if not self._frozen:
            self._out = [tuple(adj) for adj in self._out]  # type: ignore[misc]
            self._in = [tuple(adj) for adj in self._in]  # type: ignore[misc]
            self._build_label_index()
            self._frozen = True
        return self

    def thaw(self) -> "Graph":
        """Make a frozen graph mutable again (in place); returns self.

        The inverse of :meth:`freeze`: adjacency tuples become lists and
        mutation is re-enabled.  The label index survives — mutations
        maintain it incrementally.  This is how the incremental
        subsystem opens an update session on a frozen dataset graph.
        """
        if self._frozen:
            self._out = [list(adj) for adj in self._out]
            self._in = [list(adj) for adj in self._in]
            self._frozen = False
        return self

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._label_of)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` as the paper measures graph size."""
        return self.num_nodes + self._num_edges

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_live_nodes(self) -> int:
        """Nodes minus tombstones (``num_nodes`` counts the id space)."""
        return len(self._label_of) - len(self._removed)

    def nodes(self) -> range:
        """All node ids (including tombstoned slots; see :meth:`live_nodes`)."""
        return range(len(self._label_of))

    def live_nodes(self) -> Iterator[int]:
        """Node ids that have not been removed."""
        removed = self._removed
        if not removed:
            return iter(range(len(self._label_of)))
        return (v for v in range(len(self._label_of)) if v not in removed)

    def is_live(self, node: int) -> bool:
        """True when ``node`` exists and has not been removed."""
        return 0 <= node < len(self._label_of) and node not in self._removed

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all directed edges in insertion order per source."""
        for src, adj in enumerate(self._out):
            for dst in adj:
                yield (src, dst)

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self._edge_set

    def successors(self, node: int) -> Sequence[int]:
        """Children of ``node`` (the nodes it points to)."""
        return self._out[node]

    def predecessors(self, node: int) -> Sequence[int]:
        """Parents of ``node`` (the nodes pointing to it)."""
        return self._in[node]

    def out_degree(self, node: int) -> int:
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        return len(self._in[node])

    def label_id(self, node: int) -> int:
        """The interned label id of ``node``."""
        return self._label_of[node]

    def label(self, node: int) -> str:
        """The label string of ``node``."""
        return self.labels.name(self._label_of[node])

    def attrs(self, node: int) -> Mapping[str, Any]:
        """The attribute mapping of ``node`` (empty if none set)."""
        self._check_node(node)
        return self._attrs.get(node, {})

    def attr(self, node: int, key: str, default: Any = None) -> Any:
        """A single attribute of ``node``."""
        self._check_node(node)
        return self._attrs.get(node, {}).get(key, default)

    def nodes_with_label(self, label: str) -> list[int]:
        """All nodes carrying ``label`` (uses the index once built)."""
        label_id = self.labels.get(label)
        if label_id is None:
            return []
        return self.nodes_with_label_id(label_id)

    def nodes_with_label_id(self, label_id: int) -> list[int]:
        """All nodes carrying the interned label ``label_id``."""
        if self._label_index is None:
            self._build_label_index()
        assert self._label_index is not None
        return list(self._label_index.get(label_id, ()))

    def label_histogram(self) -> dict[str, int]:
        """Label -> node count."""
        histogram: dict[str, int] = {}
        for node, label_id in enumerate(self._label_of):
            if node in self._removed:
                continue
            name = self.labels.name(label_id)
            histogram[name] = histogram.get(name, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # compiled snapshots
    # ------------------------------------------------------------------
    def snapshot(self):
        """The graph's compiled CSR snapshot (cached until a mutation).

        Returns a :class:`repro.graph.csr.CSRSnapshot` — a frozen,
        array-backed view of the current state that the matching hot
        paths scan instead of the mutable dict-of-lists adjacency.  The
        snapshot is cached in :attr:`derived` and dropped by the same
        invalidation that guards every other structural cache, so it is
        always consistent with the graph.
        """
        from repro.graph import csr

        return csr.snapshot_of(self)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the new graph and a mapping from old node ids to new ids.
        Attributes are copied.
        """
        keep = sorted(set(nodes))
        mapping = {old: new for new, old in enumerate(keep)}
        sub = Graph(self.labels)
        for old in keep:
            new = sub.add_node(self.label(old))
            if old in self._attrs:
                sub.set_attrs(new, **self._attrs[old])
        for old in keep:
            for dst in self._out[old]:
                if dst in mapping:
                    sub.add_edge(mapping[old], mapping[dst])
        return sub, mapping

    def reversed(self) -> "Graph":
        """A new graph with every edge direction flipped."""
        rev = Graph(self.labels)
        for node in self.nodes():
            new = rev.add_node(self.label(node))
            if node in self._attrs:
                rev.set_attrs(new, **self._attrs[node])
        for src, dst in self.edges():
            rev.add_edge(dst, src)
        rev._removed = set(self._removed)
        return rev

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _build_label_index(self) -> None:
        index: dict[int, list[int]] = {}
        for node, label_id in enumerate(self._label_of):
            if node in self._removed:
                continue
            index.setdefault(label_id, []).append(node)
        self._label_index = index

    def _check_frozen(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen; call thaw() to mutate")

    def _invalidate_caches(self) -> None:
        """Drop derived structural caches; called only on actual changes.

        The label index is maintained incrementally by the mutation
        methods.  Derived structural caches (descendant counts etc.)
        can be changed by any edge: registered invalidators drop them
        selectively; without any, the safe default is a blanket clear.
        Failed mutations and no-ops (duplicate edge insertion) never
        reach this, so warm indexes survive them.
        """
        if self._invalidators:
            for invalidator in tuple(self._invalidators):
                invalidator()
        elif self.derived:
            self.derived.clear()

    def _check_node(self, node: int) -> None:
        if not (0 <= node < len(self._label_of)):
            raise GraphError(f"unknown node {node}")

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_nodes}, |E|={self.num_edges})"
