"""Equivalence suite: patched (overlay) snapshots ≡ full rebuilds.

A :class:`PatchedCSRSnapshot` overlays an op log on a flat base —
tombstone masks over the base runs plus append-only edge segments —
instead of recompiling the arrays.  Every read a consumer can issue
(adjacency runs, label buckets, membership counting scans, gathered
in-slices, the match-restricted CSR, the flat out-CSR, the in-CSR list
mirror) must return exactly what a flat :meth:`CSRSnapshot.build` over
the mutated graph returns, across hypothesis-generated mutation interleavings
(edge add/remove, remove-then-re-add ordering, node add/remove with
label-table growth).  The :class:`SnapshotPatcher` policy — patch small
deltas, compact past the overlay budget, restore a base dropped without
ops — is pinned alongside.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.graph.delta import SET_ATTRS
from repro.graph.digraph import Graph


SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LABELS = "ABCDE"


def seeded_graph(seed: int, num_nodes: int = 30, num_edges: int = 90) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    for _ in range(num_nodes):
        graph.add_node(rng.choice(LABELS))
    added = 0
    while added < num_edges:
        src, dst = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if not graph.has_edge(src, dst):
            graph.add_edge(src, dst)
            added += 1
    return graph


def mutate(graph: Graph, rng: random.Random, steps: int) -> None:
    """A random structural interleaving, including the tricky orderings."""
    for _ in range(steps):
        roll = rng.random()
        edges = list(graph.edges())
        live = [v for v in graph.nodes() if graph.is_live(v)]
        if roll < 0.25 and edges:
            graph.remove_edge(*rng.choice(edges))
        elif roll < 0.50 and len(live) >= 2:
            src, dst = rng.choice(live), rng.choice(live)
            if not graph.has_edge(src, dst):
                graph.add_edge(src, dst)
        elif roll < 0.62:
            graph.add_node(rng.choice(LABELS + "FG"))  # may grow the label table
        elif roll < 0.72 and len(live) > 4:
            graph.remove_node(rng.choice(live))
        elif roll < 0.85 and edges:
            # remove + re-add: the re-added edge moves to the end of its
            # adjacency run, which the overlay must replicate.
            src, dst = rng.choice(edges)
            graph.remove_edge(src, dst)
            graph.add_edge(src, dst)
        elif live:
            graph.set_attrs(rng.choice(live), w=rng.random())  # ignored by patch


def record_ops(graph: Graph):
    ops: list = []
    unsubscribe = graph.add_listener(ops.append)
    return ops, unsubscribe


def structural(ops):
    return [op for op in ops if op.kind != SET_ATTRS]


def assert_snapshots_equivalent(patched, fresh) -> None:
    import numpy as np

    assert patched.num_nodes == fresh.num_nodes
    assert patched.num_edges == fresh.num_edges
    assert patched.num_live == fresh.num_live
    np.testing.assert_array_equal(patched.live_mask, fresh.live_mask)
    np.testing.assert_array_equal(patched.live_nodes, fresh.live_nodes)
    np.testing.assert_array_equal(patched.compact_of, fresh.compact_of)
    for node in range(fresh.num_nodes):
        np.testing.assert_array_equal(
            patched.successors(node), fresh.successors(node)
        )
        np.testing.assert_array_equal(
            patched.predecessors(node), fresh.predecessors(node)
        )
    for label_id in range(max(patched.num_labels, fresh.num_labels)):
        np.testing.assert_array_equal(
            patched.nodes_with_label_id(label_id),
            fresh.nodes_with_label_id(label_id),
        )
    membership = np.zeros(fresh.num_nodes, dtype=np.uint8)
    membership[::3] = 1
    membership[1::7] = 1
    np.testing.assert_array_equal(
        patched.out_counts(membership), fresh.out_counts(membership)
    )
    np.testing.assert_array_equal(
        patched.in_counts(membership), fresh.in_counts(membership)
    )
    live = [int(v) for v in fresh.live_nodes]
    if live:
        np.testing.assert_array_equal(
            patched.gather_in_slices(live), fresh.gather_in_slices(live)
        )
    p_off, p_tgt = patched.restricted_out_csr(membership)
    f_off, f_tgt = fresh.restricted_out_csr(membership)
    np.testing.assert_array_equal(p_off, f_off)
    np.testing.assert_array_equal(p_tgt, f_tgt)
    for p_array, f_array in zip(patched.out_csr(), fresh.out_csr()):
        np.testing.assert_array_equal(p_array, f_array)
    assert patched.in_csr_lists() == fresh.in_csr_lists()


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 18))
@SETTINGS
def test_patched_equals_rebuilt_across_mutation_interleavings(seed, steps):
    graph = seeded_graph(seed)
    base = csr.CSRSnapshot.build(graph)
    ops, unsubscribe = record_ops(graph)
    mutate(graph, random.Random(seed * 31 + steps), steps)
    unsubscribe()
    patched = csr.PatchedCSRSnapshot.patch(base, structural(ops), graph)
    fresh = csr.CSRSnapshot.build(graph)
    assert_snapshots_equivalent(patched, fresh)


@given(seed=st.integers(0, 10_000))
@SETTINGS
def test_bucket_tokens_split_touched_from_inherited(seed):
    """Untouched labels keep the base's token (bucket-cache survival);
    touched labels mint a fresh one (stale buckets unreachable)."""
    graph = seeded_graph(seed)
    base = csr.CSRSnapshot.build(graph)
    ops, unsubscribe = record_ops(graph)
    mutate(graph, random.Random(seed + 1), 8)
    unsubscribe()
    patched = csr.PatchedCSRSnapshot.patch(base, structural(ops), graph)
    import numpy as np

    for label_id in range(base.num_labels):
        if patched.bucket_token(label_id) == base.token:
            # Inherited token ⇒ the bucket must be byte-identical.
            np.testing.assert_array_equal(
                patched.nodes_with_label_id(label_id),
                base.nodes_with_label_id(label_id),
            )
        else:
            assert patched.bucket_token(label_id) == patched.token
    # New labels (grown table) always carry the patched token.
    for label_id in range(base.num_labels, patched.num_labels):
        assert patched.bucket_token(label_id) == patched.token
    # Live-set token moves exactly when a node op happened.
    node_ops = any(
        op.kind in ("add_node", "remove_node") for op in structural(ops)
    )
    if node_ops:
        assert patched.live_token() == patched.token
    else:
        assert patched.live_token() == base.token


def test_patch_refuses_stacked_overlays():
    graph = seeded_graph(3)
    base = csr.CSRSnapshot.build(graph)
    ops, unsubscribe = record_ops(graph)
    graph.add_edge(0, 5) if not graph.has_edge(0, 5) else graph.remove_edge(0, 5)
    unsubscribe()
    patched = csr.PatchedCSRSnapshot.patch(base, structural(ops), graph)
    with pytest.raises(ValueError):
        csr.PatchedCSRSnapshot.patch(patched, [], graph)


class TestSnapshotPatcher:
    def test_small_delta_patches_through_graph_snapshot(self):
        graph = seeded_graph(11)
        csr.attach_snapshot_patching(graph, compact_ratio=0.5)
        flat = graph.snapshot()
        assert type(flat) is csr.CSRSnapshot
        edges = list(graph.edges())
        graph.remove_edge(*edges[0])
        graph.add_edge(edges[0][1], edges[0][0]) if not graph.has_edge(
            edges[0][1], edges[0][0]
        ) else None
        snap = graph.snapshot()
        assert isinstance(snap, csr.PatchedCSRSnapshot)
        assert graph.snapshot() is snap  # cached under the overlay key
        assert_snapshots_equivalent(snap, csr.CSRSnapshot.build(graph))
        csr.patcher_of(graph).detach()

    def test_large_delta_compacts_to_flat(self):
        graph = seeded_graph(12)
        csr.attach_snapshot_patching(graph, compact_ratio=0.0)
        graph.snapshot()
        graph.add_node("A")
        snap = graph.snapshot()
        # Ratio zero: every delta exceeds the overlay budget.
        assert type(snap) is csr.CSRSnapshot
        assert csr.patcher_of(graph).pending_ops == 0  # log reset at compaction
        csr.patcher_of(graph).detach()

    def test_successive_patches_stay_relative_to_flat_base(self):
        """Overlays never stack: each patch replays the full log on the
        one flat base, so a second small delta still patches correctly."""
        graph = seeded_graph(13)
        csr.attach_snapshot_patching(graph, compact_ratio=0.5)
        graph.snapshot()
        for round_ in range(3):
            edges = list(graph.edges())
            graph.remove_edge(*edges[round_])
            snap = graph.snapshot()
            assert isinstance(snap, csr.PatchedCSRSnapshot)
            assert_snapshots_equivalent(snap, csr.CSRSnapshot.build(graph))
        csr.patcher_of(graph).detach()

    def test_base_restored_after_external_clear(self):
        graph = seeded_graph(14)
        csr.attach_snapshot_patching(graph)
        flat = graph.snapshot()
        graph.derived.clear()  # no structural op recorded
        assert graph.snapshot() is flat
        csr.patcher_of(graph).detach()

    def test_detach_restores_oracle_path(self):
        graph = seeded_graph(15)
        patcher = csr.attach_snapshot_patching(graph)
        graph.snapshot()
        patcher.detach()
        assert csr.patcher_of(graph) is None
        graph.add_node("B")
        snap = graph.snapshot()
        assert type(snap) is csr.CSRSnapshot

    def test_attach_is_idempotent_and_retunes(self):
        graph = seeded_graph(16)
        patcher = csr.attach_snapshot_patching(graph, compact_ratio=0.25)
        again = csr.attach_snapshot_patching(graph, compact_ratio=0.75)
        assert again is patcher
        assert patcher.compact_ratio == 0.75
        patcher.detach()

    def test_outcome_counters_cover_patch_compact_rebuild(self):
        from repro.obs import MetricsRegistry, use_metrics

        graph = seeded_graph(17)
        registry = MetricsRegistry()
        with use_metrics(registry):
            patcher = csr.attach_snapshot_patching(graph, compact_ratio=0.5)
            graph.snapshot()  # cold: rebuilt
            edges = list(graph.edges())
            graph.remove_edge(*edges[0])
            graph.snapshot()  # small delta: patched
            patcher.compact_ratio = 0.0
            graph.remove_edge(*edges[1])
            graph.snapshot()  # over budget: compacted
        counter = registry.get("repro_snapshot_patch_total")
        assert counter is not None
        outcomes = {
            labels["outcome"]: value for labels, value in counter.samples()
        }
        assert outcomes == {"rebuilt": 1.0, "patched": 1.0, "compacted": 1.0}
        csr.patcher_of(graph).detach()
