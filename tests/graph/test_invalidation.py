"""The one invalidation rule for ``graph.derived``.

Every structural write clears ``graph.derived``, whatever the key and
whatever listens on the graph: a CSR snapshot, a descendant count and
an entry under an arbitrary key all go, with or without a
``MatchSession`` attached, with or without the snapshot patcher that
keeps its op log in ``graph.extensions``.  ``set_attrs``,
failed mutations and no-ops clear nothing, and ``graph.extensions``
survives every write.
"""

import pytest

from repro.errors import GraphError
from repro.graph.csr import CSR_SNAPSHOT_KEY
from repro.graph.delta import DeltaOp
from repro.graph.digraph import Graph
from repro.index.descendants import hop_counts, unbounded_counts
from repro.patterns.pattern import pattern_from_edges
from repro.session import ExecutionConfig, MatchSession

PATTERN = pattern_from_edges(["A", "B"], [(0, 1)], output=0)


def chain_graph() -> Graph:
    """``0:A -> 1:B -> 2:C``."""
    g = Graph()
    for label in ("A", "B", "C"):
        g.add_node(label)
    g.add_edges([(0, 1), (1, 2)])
    return g


def _bare(graph):
    return lambda: None


def _session(graph):
    session = MatchSession(graph, on_mutation="refresh")
    session.submit(PATTERN, k=2).result()
    return session.close


def _patching_session(graph):
    # The snapshot patcher keeps its op log in ``graph.extensions``.
    session = MatchSession(
        graph, config=ExecutionConfig(snapshot_patching=True), on_mutation="refresh"
    )
    session.submit(PATTERN, k=2).result()
    return session.close


ATTACHMENTS = {
    "bare": _bare,
    "session": _session,
    "patching_session": _patching_session,
}

STRUCTURAL_OPS = {
    "add_node": lambda g: g.add_node("C"),
    "add_edge": lambda g: g.add_edge(0, 2),
    "remove_edge": lambda g: g.remove_edge(1, 2),
    "remove_node": lambda g: g.remove_node(1),
    "apply_delta": lambda g: g.apply_delta([DeltaOp.add_edge(2, 0)]),
}

NON_STRUCTURAL_OPS = {
    "set_attrs": lambda g: g.set_attrs(0, score=3),
    "failed_remove_edge": lambda g: pytest.raises(GraphError, g.remove_edge, 2, 0),
    "duplicate_add_edge": lambda g: g.add_edge(0, 1),
}


def descendant_keys(graph):
    return [
        key
        for key in graph.derived
        if isinstance(key, str) and key.startswith("descendant-index:")
    ]


def warm(graph):
    """Cache a snapshot, a descendant count and an arbitrary entry."""
    snap = graph.snapshot()
    unbounded_counts(graph, graph.labels.get("C"))
    graph.derived["user:custom"] = {"any": "value"}
    assert graph.derived[CSR_SNAPSHOT_KEY] is snap
    assert descendant_keys(graph)
    return snap


@pytest.mark.parametrize("attachment", sorted(ATTACHMENTS))
class TestOneRule:
    @pytest.mark.parametrize("op", sorted(STRUCTURAL_OPS))
    def test_structural_op_drops_every_entry(self, op, attachment):
        g = chain_graph()
        detach = ATTACHMENTS[attachment](g)
        snap = warm(g)
        STRUCTURAL_OPS[op](g)
        assert "user:custom" not in g.derived
        assert descendant_keys(g) == []
        # A listener may have compiled a fresh snapshot after the write,
        # never kept the old one.
        assert g.derived.get(CSR_SNAPSHOT_KEY) is not snap
        assert g.snapshot().num_edges == g.num_edges
        detach()

    @pytest.mark.parametrize("op", sorted(NON_STRUCTURAL_OPS))
    def test_non_structural_op_keeps_every_entry(self, op, attachment):
        g = chain_graph()
        detach = ATTACHMENTS[attachment](g)
        warm(g)
        before = dict(g.derived)
        NON_STRUCTURAL_OPS[op](g)
        for key, value in before.items():
            assert g.derived.get(key) is value, key
        detach()

    def test_extensions_survive_structural_writes(self, attachment):
        g = chain_graph()
        detach = ATTACHMENTS[attachment](g)
        g.extensions["user:attachment"] = marker = object()
        attached = dict(g.extensions)
        for op in STRUCTURAL_OPS.values():
            op(g)
        assert g.extensions["user:attachment"] is marker
        assert g.extensions == attached
        detach()

    def test_counts_recompute_after_edge_ops(self, attachment):
        g = chain_graph()
        detach = ATTACHMENTS[attachment](g)
        label_c = g.labels.get("C")
        assert unbounded_counts(g, label_c)[0] == 1
        assert hop_counts(g, label_c, depth=2)[0] == 1
        g.remove_edge(1, 2)
        assert unbounded_counts(g, label_c)[0] == 0
        assert hop_counts(g, label_c, depth=2)[0] == 0
        g.add_edge(0, 2)
        assert unbounded_counts(g, label_c)[0] == 1
        assert hop_counts(g, label_c, depth=1)[0] == 1
        detach()

    def test_counts_recompute_after_node_ops(self, attachment):
        g = chain_graph()
        detach = ATTACHMENTS[attachment](g)
        label_b = g.labels.get("B")
        assert hop_counts(g, label_b, depth=1)[0] == 1
        assert unbounded_counts(g, label_b)[0] == 1
        g.remove_node(1)
        assert hop_counts(g, label_b, depth=1)[0] == 0
        assert unbounded_counts(g, label_b)[0] == 0
        new = g.add_node("B")
        g.add_edge(0, new)
        assert hop_counts(g, label_b, depth=1)[0] == 1
        assert unbounded_counts(g, label_b)[0] == 1
        assert len(hop_counts(g, label_b, depth=1)) == g.num_nodes
        detach()
