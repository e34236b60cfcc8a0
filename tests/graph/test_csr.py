"""CSR snapshot layer: structure, caching, and invalidation."""

from repro.graph import csr
from repro.graph.csr import CSR_SNAPSHOT_KEY, CSRSnapshot
from repro.graph.digraph import Graph
from repro.incremental.manager import MatchViewManager
from repro.patterns.pattern import pattern_from_edges


def small_graph() -> Graph:
    g = Graph()
    for label in ["A", "B", "A", "C", "B"]:
        g.add_node(label)
    g.add_edges([(0, 1), (0, 2), (1, 3), (3, 4), (2, 0), (2, 4)])
    return g


class TestStructure:
    def test_adjacency_matches_graph(self):
        g = small_graph()
        snap = g.snapshot()
        assert snap.num_nodes == g.num_nodes
        assert snap.num_edges == g.num_edges
        for v in g.nodes():
            assert snap.successors(v).tolist() == list(g.successors(v))
            assert snap.predecessors(v).tolist() == list(g.predecessors(v))

    def test_label_buckets_match_label_index(self):
        g = small_graph()
        snap = g.snapshot()
        for label in ("A", "B", "C"):
            label_id = g.labels.get(label)
            assert snap.label_bucket_list(label_id) == g.nodes_with_label(label)
        assert snap.label_bucket_list(-1) == []
        assert snap.label_bucket_list(99) == []

    def test_live_remap_after_tombstones(self):
        g = small_graph()
        g.remove_node(3)
        snap = g.snapshot()
        assert snap.live_list() == [0, 1, 2, 4]
        assert snap.num_live == 4
        assert snap.compact_of.tolist() == [0, 1, 2, -1, 3]
        assert snap.live_mask.tolist() == [1, 1, 1, 0, 1]
        # Tombstoned node left every label bucket.
        assert 3 not in snap.label_bucket_list(g.labels.get("C"))
        # Its incident edges are gone from the CSR arrays too.
        assert snap.num_edges == g.num_edges
        assert snap.successors(3).tolist() == []

    def test_empty_graph(self):
        snap = Graph().snapshot()
        assert snap.num_nodes == 0
        assert snap.num_edges == 0
        assert snap.live_list() == []

    def test_frozen_graph_snapshots(self):
        g = small_graph().freeze()
        snap = g.snapshot()
        assert snap.num_edges == g.num_edges

    def test_csr_list_mirrors(self):
        g = small_graph()
        snap = g.snapshot()
        offsets, targets = snap.out_csr()
        for v in g.nodes():
            assert targets[offsets[v] : offsets[v + 1]].tolist() == list(g.successors(v))
        in_offsets, sources = snap.in_csr_lists()
        for v in g.nodes():
            assert sources[in_offsets[v] : in_offsets[v + 1]] == list(g.predecessors(v))


class TestKernels:
    def test_out_counts(self):
        import numpy as np

        g = small_graph()
        snap = g.snapshot()
        member = np.zeros(g.num_nodes, dtype=np.uint8)
        member[[1, 4]] = 1
        expected = [
            sum(1 for c in g.successors(v) if c in (1, 4)) for v in g.nodes()
        ]
        assert snap.out_counts(member).tolist() == expected

    def test_gather_in_slices(self):
        g = small_graph()
        snap = g.snapshot()
        gathered = snap.gather_in_slices([4, 0, 3])
        expected = list(g.predecessors(4)) + list(g.predecessors(0)) + list(
            g.predecessors(3)
        )
        assert gathered.tolist() == expected
        assert snap.gather_in_slices([]).tolist() == []


class TestCachingAndInvalidation:
    def test_snapshot_is_cached(self):
        g = small_graph()
        assert g.snapshot() is g.snapshot()
        assert isinstance(g.derived[CSR_SNAPSHOT_KEY], CSRSnapshot)

    def test_structural_mutation_invalidates(self):
        g = small_graph()
        before = g.snapshot()
        g.add_edge(4, 0)
        after = g.snapshot()
        assert after is not before
        assert after.num_edges == before.num_edges + 1

    def test_set_attrs_keeps_snapshot_warm(self):
        # Snapshots carry no attribute state, and set_attrs emits no
        # structural invalidation — the compiled arrays stay valid.
        g = small_graph()
        before = g.snapshot()
        g.set_attrs(0, score=3)
        assert g.snapshot() is before

    def test_targeted_invalidators_drop_snapshot(self):
        # With a MatchViewManager attached, the graph switches from the
        # blanket derived-cache clear to targeted invalidators — the CSR
        # snapshot must be covered by them.
        g = small_graph()
        manager = MatchViewManager.for_graph(g)
        manager.register(pattern_from_edges(["A", "B"], [(0, 1)], output=0))
        snap = g.snapshot()
        g.derived["user:custom"] = "survives"
        g.add_edge(4, 2)
        assert g.derived.get(CSR_SNAPSHOT_KEY) is not snap
        assert g.derived["user:custom"] == "survives"
        fresh = g.snapshot()
        assert fresh.num_edges == g.num_edges
        manager.close()

    def test_snapshot_after_remove_node(self):
        g = small_graph()
        g.snapshot()
        g.remove_node(0)
        snap = g.snapshot()
        assert 0 not in snap.live_list()
        assert snap.num_edges == g.num_edges


def _view(interner, nodes):
    return csr.FrozenBitset(sum(1 << interner.bit_of[v] for v in nodes), interner)


class TestFrozenBitset:
    def test_set_algebra_and_frozenset_interop(self):
        interner = csr.NodeInterner([1, 2, 3, 5])
        view = _view(interner, [1, 3])
        assert set(view) == {1, 3}
        assert 2 not in view and -1 not in view and "x" not in view
        assert len(view) == 2 and bool(view)
        # frozenset interop: equality, hash, mixed algebra.
        assert view == frozenset({1, 3})
        assert hash(view) == hash(frozenset({1, 3}))
        assert view | {2} == {1, 2, 3}
        other = _view(interner, [3, 5])
        assert view & other == frozenset({3})
        assert view - other == {1}
        assert view ^ other == {1, 5}
        assert view <= _view(interner, [1, 2, 3])
        assert not view.isdisjoint(other)
        assert view.isdisjoint(csr.FrozenBitset(0, interner))

    def test_views_are_immutable(self):
        view = _view(csr.NodeInterner([1, 2, 3, 5]), [1, 3])
        for method in ("add", "discard", "update", "clear", "remove", "pop"):
            assert not hasattr(view, method)
        # Set algebra yields fresh objects, never touching the view.
        grown = view | {10_000}
        assert 10_000 not in view and 10_000 in grown
        assert set(view) == {1, 3}
