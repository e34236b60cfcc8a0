"""Label-based affectedness: which patterns can a delta possibly touch?

The selectivity signal behind both incremental maintenance and the
session layer's label-selective invalidation.  A structural or attribute
:class:`~repro.graph.delta.DeltaOp` can only change a pattern's match
relation when the labels it touches intersect the pattern's *label
signature* — its node labels, its ordered edge label pairs, and the
labels of its predicated nodes.  :class:`MatchView.affected_by` has
always computed exactly this test per view; this module lifts it into a
shared, pattern-object-free form so :class:`repro.session.SessionCache`
can apply the same filter to every cached artifact:

* :func:`affected_labels` — the label strings one op touches;
* :class:`DeltaLabels` / :func:`summarize_delta` — an op *log* folded
  into one intersection-testable summary;
* :class:`PatternLabelSignature` — the pattern side, buildable from a
  :class:`~repro.patterns.pattern.Pattern` or from the bare
  ``(labels, edges, predicates)`` tuples a structural cache key carries.

A wildcard query node matches every label, so node-op tests collapse to
"always affected" and edge-pair tests treat the wildcard as matching
either endpoint — identical to the historical ``affected_by`` logic,
which now delegates here (equivalence is pinned by the view test suite).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.graph.delta import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    SET_ATTRS,
    DeltaOp,
)
from repro.simulation.candidates import WILDCARD_LABEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.digraph import Graph
    from repro.patterns.pattern import Pattern


def affected_labels(op: DeltaOp, graph: "Graph") -> frozenset[str]:
    """The data-graph label strings ``op`` touches.

    Edge ops touch both endpoint labels; node and attrs ops touch the
    node's label.  Labels are immutable per node (there is no relabel
    op) and tombstoned nodes keep theirs, so evaluating this *after*
    the op applied — or much later, from an accumulated log — gives
    the same answer as at dispatch time.
    """
    if op.kind in (ADD_EDGE, REMOVE_EDGE):
        assert op.src is not None and op.dst is not None
        return frozenset((graph.label(op.src), graph.label(op.dst)))
    if op.kind == ADD_NODE:
        assert op.label is not None
        return frozenset((op.label,))
    assert op.node is not None
    return frozenset((graph.label(op.node),))


class DeltaLabels:
    """An op log folded into one intersection-testable label summary.

    Aggregates what :func:`affected_labels` reports per op, but keeps
    the per-kind structure the pattern-side tests need: edge ops as
    ordered ``(src_label, dst_label)`` pairs, node ops and attrs ops as
    separate label sets (candidates are edge-independent, so only node
    and attrs ops can invalidate them).
    """

    __slots__ = ("edge_pairs", "node_labels", "attr_labels")

    def __init__(
        self,
        edge_pairs: frozenset[tuple[str, str]] = frozenset(),
        node_labels: frozenset[str] = frozenset(),
        attr_labels: frozenset[str] = frozenset(),
    ) -> None:
        self.edge_pairs = edge_pairs
        self.node_labels = node_labels
        self.attr_labels = attr_labels

    @property
    def empty(self) -> bool:
        return not (self.edge_pairs or self.node_labels or self.attr_labels)

    def all_labels(self) -> frozenset[str]:
        """Every label the delta touches (the bucket-level drop set)."""
        flat: set[str] = set(self.node_labels) | set(self.attr_labels)
        for src_label, dst_label in self.edge_pairs:
            flat.add(src_label)
            flat.add(dst_label)
        return frozenset(flat)

    def __repr__(self) -> str:
        return (
            f"DeltaLabels(pairs={sorted(self.edge_pairs)}, "
            f"nodes={sorted(self.node_labels)}, attrs={sorted(self.attr_labels)})"
        )


def summarize_delta(ops: Iterable[DeltaOp], graph: "Graph") -> DeltaLabels:
    """Fold an op log into a :class:`DeltaLabels` summary."""
    edge_pairs: set[tuple[str, str]] = set()
    node_labels: set[str] = set()
    attr_labels: set[str] = set()
    for op in ops:
        kind = op.kind
        if kind in (ADD_EDGE, REMOVE_EDGE):
            assert op.src is not None and op.dst is not None
            edge_pairs.add((graph.label(op.src), graph.label(op.dst)))
        elif kind == ADD_NODE:
            assert op.label is not None
            node_labels.add(op.label)
        elif kind == SET_ATTRS:
            assert op.node is not None
            attr_labels.add(graph.label(op.node))
        else:  # REMOVE_NODE
            assert op.node is not None
            node_labels.add(graph.label(op.node))
    return DeltaLabels(
        frozenset(edge_pairs), frozenset(node_labels), frozenset(attr_labels)
    )


class PatternLabelSignature:
    """The pattern side of the affectedness test.

    Precomputes node labels, ordered edge label pairs and predicated
    labels once; :meth:`affects_op` is the exact per-op test
    :class:`~repro.incremental.view.MatchView` dispatches on, and
    :meth:`affects_relation` / :meth:`affects_candidates` are the
    log-level forms the session cache intersects artifact keys with.
    """

    __slots__ = (
        "node_labels",
        "has_wildcard",
        "edge_label_pairs",
        "predicated_labels",
        "predicated_wildcard",
    )

    def __init__(
        self,
        node_labels: frozenset[str],
        edge_label_pairs: frozenset[tuple[str, str]],
        predicated_labels: frozenset[str],
    ) -> None:
        self.node_labels = node_labels
        self.has_wildcard = WILDCARD_LABEL in node_labels
        self.edge_label_pairs = edge_label_pairs
        self.predicated_labels = predicated_labels
        self.predicated_wildcard = WILDCARD_LABEL in predicated_labels

    @classmethod
    def from_pattern(cls, pattern: "Pattern") -> "PatternLabelSignature":
        return cls(
            frozenset(pattern.label(u) for u in pattern.nodes()),
            frozenset(
                (pattern.label(u), pattern.label(u_child))
                for u, u_child in pattern.edges()
            ),
            frozenset(
                pattern.label(u)
                for u in pattern.nodes()
                if pattern.predicate(u) is not None
            ),
        )

    @classmethod
    def from_structure(
        cls,
        labels: Sequence[str],
        edges: Iterable[tuple[int, int]],
        predicates: Sequence[object],
    ) -> "PatternLabelSignature":
        """Build from the bare tuples a structural cache key carries.

        ``labels[i]`` is query node ``i``'s label, ``edges`` its index
        pairs, ``predicates[i]`` its predicate or ``None`` — exactly the
        components of
        :func:`repro.session.cache.pattern_structure_key`.
        """
        return cls(
            frozenset(labels),
            frozenset((labels[u], labels[u_child]) for u, u_child in edges),
            frozenset(
                labels[u] for u in range(len(labels)) if predicates[u] is not None
            ),
        )

    # ------------------------------------------------------------------
    # per-op test (MatchView dispatch)
    # ------------------------------------------------------------------
    def affects_op(self, op: DeltaOp, graph: "Graph") -> bool:
        """Can ``op`` possibly change this pattern's match relation?"""
        if op.kind in (ADD_EDGE, REMOVE_EDGE):
            assert op.src is not None and op.dst is not None
            return self._edge_pair_hits(graph.label(op.src), graph.label(op.dst))
        if op.kind == ADD_NODE:
            return self.has_wildcard or op.label in self.node_labels
        assert op.node is not None
        if op.kind == SET_ATTRS:
            return (
                self.predicated_wildcard
                or graph.label(op.node) in self.predicated_labels
            )
        return self.has_wildcard or graph.label(op.node) in self.node_labels

    # ------------------------------------------------------------------
    # log-level tests (session-cache selective invalidation)
    # ------------------------------------------------------------------
    def affects_relation(self, delta: DeltaLabels) -> bool:
        """Can *any* op in the summarized delta change the relation?

        The disjunction of :meth:`affects_op` over the log — simulation,
        top-k evaluations, ranking contexts and stored results must be
        dropped exactly when this holds.
        """
        for src_label, dst_label in delta.edge_pairs:
            if self._edge_pair_hits(src_label, dst_label):
                return True
        if delta.node_labels and (
            self.has_wildcard
            or not delta.node_labels.isdisjoint(self.node_labels)
        ):
            return True
        return bool(delta.attr_labels) and (
            self.predicated_wildcard
            or not delta.attr_labels.isdisjoint(self.predicated_labels)
        )

    def affects_candidates(self, delta: DeltaLabels) -> bool:
        """Can the delta change ``can(u)`` rows?

        Candidates are label buckets narrowed by predicates — edge ops
        cannot move them, so only the node/attrs components count.
        """
        if delta.node_labels and (
            self.has_wildcard
            or not delta.node_labels.isdisjoint(self.node_labels)
        ):
            return True
        return bool(delta.attr_labels) and (
            self.predicated_wildcard
            or not delta.attr_labels.isdisjoint(self.predicated_labels)
        )

    def _edge_pair_hits(self, src_label: str, dst_label: str) -> bool:
        pairs = self.edge_label_pairs
        return (
            (src_label, dst_label) in pairs
            or (WILDCARD_LABEL, dst_label) in pairs
            or (src_label, WILDCARD_LABEL) in pairs
            or (WILDCARD_LABEL, WILDCARD_LABEL) in pairs
        )

    def __repr__(self) -> str:
        return (
            f"PatternLabelSignature(nodes={sorted(self.node_labels)}, "
            f"pairs={sorted(self.edge_label_pairs)}, "
            f"predicated={sorted(self.predicated_labels)})"
        )
