"""Tests for the targeted descendant-index invalidation hooks."""

import pytest

from repro.graph.digraph import Graph
from repro.index.descendants import hop_counts, unbounded_counts
from repro.index.invalidation import (
    attach_index_invalidation,
    csr_cache_keys,
    descendant_cache_keys,
    invalidate_csr_snapshots,
    invalidate_descendant_indexes,
)


def chain_graph():
    g = Graph()
    a = g.add_node("A")
    b = g.add_node("B")
    c = g.add_node("C")
    g.add_edge(a, b)
    g.add_edge(b, c)
    return g, (a, b, c)


class TestTargetedInvalidation:
    def test_only_descendant_keys_dropped(self):
        g, _ = chain_graph()
        hop_counts(g, g.labels.get("C"), depth=2)
        g.derived["user-cache"] = {"keep": "me"}
        assert descendant_cache_keys(g)
        dropped = invalidate_descendant_indexes(g)
        assert dropped > 0
        assert descendant_cache_keys(g) == []
        assert g.derived["user-cache"] == {"keep": "me"}

    def test_attached_hook_preserves_unrelated_derived_state(self):
        # With the hook attached, mutations drop only index caches —
        # the graph's default blanket clear is replaced.
        g, (a, b, c) = chain_graph()
        attach_index_invalidation(g)
        unbounded_counts(g, g.labels.get("C"))
        g.derived["user-cache"] = {"keep": "me"}
        g.remove_edge(b, c)
        assert descendant_cache_keys(g) == []
        assert g.derived["user-cache"] == {"keep": "me"}

    def test_without_hook_blanket_clear_still_applies(self):
        g, (a, b, c) = chain_graph()
        g.derived["user-cache"] = "anything"
        g.remove_edge(b, c)
        assert g.derived == {}

    def test_failed_and_noop_mutations_keep_caches_warm(self):
        from repro.errors import GraphError

        g, (a, b, c) = chain_graph()
        label_c = g.labels.get("C")
        unbounded_counts(g, label_c)
        assert descendant_cache_keys(g)
        with pytest.raises(GraphError):
            g.remove_edge(c, a)  # nonexistent: graph unchanged
        g.add_edge(a, b)  # duplicate: silent no-op
        assert descendant_cache_keys(g)  # caches survived both

    def test_counts_recompute_after_edge_mutation(self):
        g, (a, b, c) = chain_graph()
        label_c = g.labels.get("C")
        assert unbounded_counts(g, label_c)[a] == 1
        detach = attach_index_invalidation(g)
        g.remove_edge(b, c)
        # The hook dropped the cache; a fresh query sees the new graph.
        assert unbounded_counts(g, label_c)[a] == 0
        g.add_edge(a, c)
        assert unbounded_counts(g, label_c)[a] == 1
        detach()

    def test_hook_fires_on_node_ops(self):
        g, (a, b, c) = chain_graph()
        label_b = g.labels.get("B")
        attach_index_invalidation(g)
        assert hop_counts(g, label_b, depth=1)[a] == 1
        g.remove_node(b)
        assert hop_counts(g, label_b, depth=1)[a] == 0
        new = g.add_node("B")
        g.add_edge(a, new)
        assert hop_counts(g, label_b, depth=1)[a] == 1

    def test_hook_covers_csr_snapshots(self):
        g, (a, b, c) = chain_graph()
        detach = attach_index_invalidation(g)
        snap = g.snapshot()
        assert csr_cache_keys(g)
        g.derived["user-cache"] = "survives"
        g.remove_edge(b, c)
        assert csr_cache_keys(g) == []
        assert g.derived["user-cache"] == "survives"
        fresh = g.snapshot()
        assert fresh is not snap
        assert fresh.num_edges == g.num_edges
        detach()

    def test_targeted_csr_drop_on_demand(self):
        g, _ = chain_graph()
        g.snapshot()
        g.derived["user-cache"] = "kept"
        assert invalidate_csr_snapshots(g) == 1
        assert csr_cache_keys(g) == []
        assert g.derived["user-cache"] == "kept"

    def test_detach_restores_blanket_clearing(self):
        g, (a, b, c) = chain_graph()
        detach = attach_index_invalidation(g)
        detach()
        label_c = g.labels.get("C")
        unbounded_counts(g, label_c)
        g.derived["user-cache"] = "anything"
        g.remove_edge(b, c)
        # Back on the safe default: everything cleared, queries fresh.
        assert "user-cache" not in g.derived
        assert unbounded_counts(g, label_c)[a] == 0
