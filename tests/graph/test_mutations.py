"""Tests for the graph mutation API: removals, deltas, events, thaw."""

import pytest

from repro.errors import GraphError
from repro.graph.delta import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    SET_ATTRS,
    DeltaOp,
)
from repro.graph.digraph import Graph
from repro.graph.io import load_json, save_json


@pytest.fixture()
def diamond():
    g = Graph()
    a = g.add_node("A")
    b = g.add_node("B")
    c = g.add_node("C")
    d = g.add_node("D")
    g.add_edges([(a, b), (a, c), (b, d), (c, d)])
    return g


class TestRemoveEdge:
    def test_removes_both_directions_of_adjacency(self, diamond):
        diamond.remove_edge(0, 1)
        assert not diamond.has_edge(0, 1)
        assert 1 not in diamond.successors(0)
        assert 0 not in diamond.predecessors(1)
        assert diamond.num_edges == 3

    def test_missing_edge_rejected(self, diamond):
        with pytest.raises(GraphError):
            diamond.remove_edge(1, 0)

    def test_add_after_remove_roundtrips(self, diamond):
        diamond.remove_edge(0, 1)
        diamond.add_edge(0, 1)
        assert diamond.has_edge(0, 1)
        assert diamond.num_edges == 4


class TestRemoveNode:
    def test_strips_incident_edges(self, diamond):
        diamond.remove_node(1)
        assert not diamond.has_edge(0, 1) and not diamond.has_edge(1, 3)
        assert diamond.num_edges == 2
        assert not diamond.is_live(1)
        assert diamond.num_live_nodes == 3
        assert list(diamond.live_nodes()) == [0, 2, 3]

    def test_ids_stay_dense(self, diamond):
        diamond.remove_node(1)
        assert diamond.num_nodes == 4  # slot is tombstoned, not reused
        new = diamond.add_node("E")
        assert new == 4

    def test_double_removal_rejected(self, diamond):
        diamond.remove_node(1)
        with pytest.raises(GraphError):
            diamond.remove_node(1)

    def test_edges_at_removed_node_rejected(self, diamond):
        diamond.remove_node(1)
        with pytest.raises(GraphError):
            diamond.add_edge(0, 1)

    def test_label_index_and_histogram_exclude_tombstones(self, diamond):
        assert diamond.nodes_with_label("B") == [1]  # builds the index
        diamond.remove_node(1)
        assert diamond.nodes_with_label("B") == []
        assert "B" not in diamond.label_histogram()

    def test_attrs_dropped(self, diamond):
        diamond.set_attrs(1, views=3)
        diamond.remove_node(1)
        assert diamond.attr(1, "views") is None


class TestLabelIndexMaintenance:
    def test_add_node_appends_to_built_index(self, diamond):
        assert diamond.nodes_with_label("A") == [0]
        new = diamond.add_node("A")
        assert diamond.nodes_with_label("A") == [0, new]

    def test_edge_mutations_keep_index_warm(self, diamond):
        diamond.nodes_with_label("A")
        diamond.remove_edge(0, 1)
        diamond.add_edge(1, 0)
        assert diamond._label_index is not None


class TestApplyDelta:
    def test_batch_returns_assigned_node_ids(self, diamond):
        results = diamond.apply_delta(
            [
                DeltaOp.add_node("E", views=7),
                DeltaOp.add_edge(3, 4),
                DeltaOp.remove_edge(0, 1),
                DeltaOp.remove_node(2),
            ]
        )
        assert results == [4, None, None, None]
        assert diamond.label(4) == "E" and diamond.attr(4, "views") == 7
        assert diamond.has_edge(3, 4)
        assert not diamond.has_edge(0, 1)
        assert not diamond.is_live(2)


class TestChangeEvents:
    def test_each_mutation_emits_one_event(self, diamond):
        seen = []
        diamond.add_listener(seen.append)
        node = diamond.add_node("E")
        diamond.add_edge(3, node)
        diamond.remove_edge(3, node)
        diamond.set_attrs(node, views=4)
        kinds = [op.kind for op in seen]
        assert kinds == ["add_node", "add_edge", "remove_edge", "set_attrs"]
        assert seen[0].node == node and seen[0].label == "E"
        assert seen[-1].node == node and seen[-1].attrs == {"views": 4}

    def test_duplicate_edge_is_silent(self, diamond):
        seen = []
        diamond.add_listener(seen.append)
        diamond.add_edge(0, 1)  # already present
        assert seen == []

    def test_remove_node_emits_edge_removals_first(self, diamond):
        seen = []
        diamond.add_listener(seen.append)
        diamond.remove_node(1)
        kinds = [op.kind for op in seen]
        assert kinds == ["remove_edge", "remove_edge", "remove_node"]
        assert seen[-1].node == 1

    def test_unsubscribe(self, diamond):
        seen = []
        unsubscribe = diamond.add_listener(seen.append)
        unsubscribe()
        diamond.add_node("E")
        assert seen == []

    def test_unobserved_mutations_build_no_ops(self, diamond, tmp_path, monkeypatch):
        # Without a listener no DeltaOp is built, so a load pays none.
        from repro.graph import digraph

        built = []

        def counting_op(*args, **kwargs):
            built.append(args[0])
            return DeltaOp(*args, **kwargs)

        monkeypatch.setattr(digraph, "DeltaOp", counting_op)
        path = tmp_path / "g.json"
        save_json(diamond, path)
        g = load_json(path)
        g.set_attrs(0, views=1)
        g.remove_node(1)
        assert built == []
        g.add_listener(lambda op: None)
        g.add_edge(0, 3)
        g.remove_edge(0, 3)
        assert built == [ADD_EDGE, REMOVE_EDGE]

    def test_listener_attached_after_load_sees_every_op(self, diamond, tmp_path):
        # The loader's mutations build no events (nothing listens); a
        # listener attached afterwards sees every later op, in order.
        path = tmp_path / "g.json"
        save_json(diamond, path)
        g = load_json(path)
        seen = []
        g.add_listener(seen.append)
        node = g.add_node("E", views=3)
        g.add_edge(3, node)
        g.set_attrs(node, views=4)
        g.remove_edge(0, 1)
        g.remove_node(2)
        assert seen == [
            DeltaOp(ADD_NODE, node=node, label="E", attrs={"views": 3}),
            DeltaOp(ADD_EDGE, src=3, dst=node),
            DeltaOp(SET_ATTRS, node=node, attrs={"views": 4}),
            DeltaOp(REMOVE_EDGE, src=0, dst=1),
            DeltaOp(REMOVE_EDGE, src=2, dst=3),
            DeltaOp(REMOVE_EDGE, src=0, dst=2),
            DeltaOp(REMOVE_NODE, node=2),
        ]


class TestFreezeThaw:
    def test_frozen_rejects_removals(self, diamond):
        diamond.freeze()
        with pytest.raises(GraphError):
            diamond.remove_edge(0, 1)
        with pytest.raises(GraphError):
            diamond.remove_node(1)

    def test_thaw_reenables_mutation(self, diamond):
        diamond.freeze().thaw()
        assert not diamond.frozen
        diamond.remove_edge(0, 1)
        node = diamond.add_node("E")
        diamond.add_edge(node, 0)
        assert diamond.has_edge(node, 0)

    def test_thaw_keeps_label_index_consistent(self, diamond):
        diamond.freeze().thaw()
        new = diamond.add_node("A")
        assert diamond.nodes_with_label("A") == [0, new]
