"""Pickle round-trips for everything the serving pool ships.

Workers receive ``(Graph, ExecutionConfig)`` once at initialisation and
``QuerySpec`` lists per dispatch; ``CSRSnapshot`` keeps a pickle form
for the same boundary.  Each must survive a round-trip with its
semantic payload intact while process-local wiring (listeners, derived
caches, scalar-mirror caches) is deliberately dropped and rebuilt
lazily.
"""

import pickle

from repro.graph import csr
from repro.session import ExecutionConfig, QuerySpec
from repro.session.parallel import spec_is_poolable

from tests.conftest import make_random_graph, make_random_pattern


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def test_graph_roundtrip_preserves_topology_and_drops_wiring():
    graph = make_random_graph(3, num_nodes=12, num_edges=22)
    graph.set_attrs(0, weight=7)
    graph.remove_node(5)
    graph.snapshot()  # populate derived
    graph.add_listener(lambda op: None)
    copy = roundtrip(graph)
    assert copy.num_nodes == graph.num_nodes
    assert copy.num_edges == graph.num_edges
    assert sorted(copy.edges()) == sorted(graph.edges())
    assert [copy.label(v) for v in copy.nodes()] == [
        graph.label(v) for v in graph.nodes()
    ]
    assert copy.attr(0, "weight") == 7
    assert copy._listeners == []
    assert copy.derived == {} and copy.extensions == {}


def test_csr_snapshot_roundtrip_preserves_arrays_and_drops_caches():
    import numpy as np

    graph = make_random_graph(7, num_nodes=15, num_edges=30)
    snap = graph.snapshot()
    snap.in_csr_lists()  # populate the scalar-mirror cache
    copy = roundtrip(snap)
    for name in (
        "out_offsets", "out_targets", "in_offsets", "in_sources",
        "label_ids", "live_mask", "label_offsets", "label_nodes",
    ):
        np.testing.assert_array_equal(getattr(copy, name), getattr(snap, name))
    assert copy.num_nodes == snap.num_nodes
    assert copy.num_edges == snap.num_edges
    assert copy._in_lists is None
    # And the copy computes identical counting scans.
    membership = np.zeros(snap.num_nodes, dtype=np.uint8)
    membership[:: 2] = 1
    np.testing.assert_array_equal(
        copy.out_counts(membership), snap.out_counts(membership)
    )


def test_patched_snapshot_roundtrip_preserves_overlay_reads():
    """An overlay-form snapshot pickles like a flat one: every read the
    copy serves matches the patched original, and process-local caches
    (list mirrors, token) are rebuilt fresh."""
    import numpy as np

    graph = make_random_graph(11, num_nodes=15, num_edges=30)
    base = csr.CSRSnapshot.build(graph)
    ops = []
    unsubscribe = graph.add_listener(ops.append)
    edges = list(graph.edges())
    graph.remove_edge(*edges[0])
    graph.add_edge(*edges[0])  # re-add: segment ordering must survive
    graph.add_node("A")
    graph.remove_node(edges[1][0])
    unsubscribe()
    patched = csr.PatchedCSRSnapshot.patch(base, ops, graph)
    patched.in_csr_lists()
    patched.out_csr()
    copy = roundtrip(patched)
    assert isinstance(copy, csr.PatchedCSRSnapshot)
    assert copy.num_nodes == patched.num_nodes
    assert copy.num_edges == patched.num_edges
    assert copy.num_live == patched.num_live
    np.testing.assert_array_equal(copy.live_mask, patched.live_mask)
    assert copy._in_lists is None
    assert copy._out_csr is None
    for node in range(patched.num_nodes):
        np.testing.assert_array_equal(
            copy.successors(node), patched.successors(node)
        )
        np.testing.assert_array_equal(
            copy.predecessors(node), patched.predecessors(node)
        )
    for label_id in range(patched.num_labels):
        np.testing.assert_array_equal(
            copy.nodes_with_label_id(label_id),
            patched.nodes_with_label_id(label_id),
        )
    membership = np.zeros(patched.num_nodes, dtype=np.uint8)
    membership[::2] = 1
    np.testing.assert_array_equal(
        copy.out_counts(membership), patched.out_counts(membership)
    )
    np.testing.assert_array_equal(
        copy.in_counts(membership), patched.in_counts(membership)
    )
    # Tokens are transient per-process wiring: minted fresh on load.
    assert copy.token != patched.token


def test_execution_config_roundtrip():
    cfg = ExecutionConfig(
        optimized=False, seed=9, workers=3, snapshot_patching=True,
        slow_query_seconds=0.5,
    )
    assert roundtrip(cfg) == cfg


def test_query_spec_roundtrip():
    pattern = make_random_pattern(4, num_nodes=3, extra_edges=1, cyclic=False)
    spec = QuerySpec(
        pattern, k=4, mode="diversified", lam=0.25, method="approx",
        config=ExecutionConfig(workers=2),
    )
    assert spec_is_poolable(QuerySpec(pattern, k=4))
    copy = roundtrip(spec)
    assert copy.k == spec.k and copy.mode == spec.mode
    assert copy.lam == spec.lam and copy.method == spec.method
    assert copy.config == spec.config
    assert copy.pattern.shape == spec.pattern.shape
    assert list(copy.pattern.edges()) == list(spec.pattern.edges())


def test_unpicklable_spec_is_not_poolable():
    pattern = make_random_pattern(8, num_nodes=3, extra_edges=1, cyclic=True)
    spec = QuerySpec(pattern, k=2, relevance_fn=lambda ctx, v: 1.0)
    assert not spec_is_poolable(spec)
