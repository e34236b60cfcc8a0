"""Label-based affectedness: which patterns can one delta op touch?

A structural or attribute :class:`~repro.graph.delta.DeltaOp` can only
change a pattern's match relation when the labels it touches meet the
pattern's *label signature*: its node labels, its ordered edge label
pairs, and the labels of its predicated nodes.
:class:`~repro.session.cache.SessionCache` runs this test per op and
cached pattern before repairing the pattern's relation.

A wildcard query node matches every label, so node-op tests collapse to
"always affected" and edge-pair tests treat the wildcard as matching
either endpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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


class PatternLabelSignature:
    """The pattern side of the affectedness test.

    Precomputes node labels, ordered edge label pairs and predicated
    labels once; :meth:`affects_op` is the per-op test.
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

    def affects_op(self, op: DeltaOp, graph: "Graph") -> bool:
        """Can ``op`` possibly change this pattern's match relation?

        An edge op matters only when some pattern edge joins the
        endpoint labels; a node op only when the node's label is a
        pattern label; an attrs op only when a *predicated* query node
        carries that label.  Labels are immutable per node and
        tombstoned nodes keep theirs, so the test holds after the op
        applied.
        """
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
