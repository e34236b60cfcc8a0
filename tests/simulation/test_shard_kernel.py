"""The shard-parallel kernel arm ≡ the serial CSR kernel (the oracle).

Sharding only changes *where* the counting scans run — node-range
shards on a thread (or process) pool — never what they compute: the
cascade is level-synchronous, so shards scan frozen membership views
independently and merge at the round barrier.  This suite pins that
equivalence, plus the shard-geometry invariants the runner relies on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.match import maximal_simulation

from tests.conftest import make_random_graph, make_random_pattern


SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(seed=st.integers(0, 10_000), num_shards=st.integers(2, 9))
@SETTINGS
def test_shard_bounds_partition_the_node_range(seed, num_shards):
    graph = make_random_graph(seed, num_nodes=20, num_edges=40)
    snap = graph.snapshot()
    bounds = snap.shard_bounds(num_shards)
    assert bounds[0] == 0 and bounds[-1] == snap.num_nodes
    assert bounds == sorted(bounds)
    assert len(bounds) - 1 <= num_shards
    assert snap.shard_bounds(num_shards) is bounds  # cached


@given(seed=st.integers(0, 10_000), num_shards=st.integers(2, 6))
@SETTINGS
def test_out_counts_range_tiles_the_serial_scan(seed, num_shards):
    import numpy as np

    graph = make_random_graph(seed, num_nodes=18, num_edges=36)
    snap = graph.snapshot()
    rng = np.random.default_rng(seed)
    membership = (rng.random(snap.num_nodes) < 0.5).astype(np.uint8)
    whole = snap.out_counts(membership)
    bounds = snap.shard_bounds(num_shards)
    tiled = np.empty_like(whole)
    for lo, hi in zip(bounds, bounds[1:]):
        snap.out_counts_range(membership, lo, hi, tiled)
        np.testing.assert_array_equal(
            snap.out_counts_range(membership, lo, hi), whole[lo:hi]
        )
    np.testing.assert_array_equal(tiled, whole)


@given(seed=st.integers(0, 10_000), num_shards=st.integers(2, 6))
@SETTINGS
def test_shard_label_slices_window_the_buckets(seed, num_shards):
    graph = make_random_graph(seed, num_nodes=20, num_edges=30)
    snap = graph.snapshot()
    bounds = snap.shard_bounds(num_shards)
    per_shard = snap.shard_label_slices(num_shards)
    assert len(per_shard) == len(bounds) - 1
    for label_id in range(snap.num_labels):
        lo, hi = snap.label_offsets[label_id], snap.label_offsets[label_id + 1]
        bucket = snap.label_nodes[lo:hi].tolist()
        gathered = []
        for shard, (blo, bhi) in enumerate(zip(bounds, bounds[1:])):
            start, stop = per_shard[shard][label_id]
            window = snap.label_nodes[start:stop].tolist()
            assert all(blo <= v < bhi for v in window)
            gathered.extend(window)
        assert gathered == bucket


@given(
    seed=st.integers(0, 10_000),
    shards=st.integers(2, 7),
    cyclic=st.booleans(),
)
@SETTINGS
def test_sharded_fixpoint_equals_serial(seed, shards, cyclic):
    graph = make_random_graph(seed, num_nodes=20, num_edges=45)
    pattern = make_random_pattern(seed, num_nodes=3, extra_edges=2, cyclic=cyclic)
    serial = maximal_simulation(pattern, graph)
    sharded = maximal_simulation(pattern, graph, sim_shards=shards)
    assert sharded.sim == serial.sim
    assert sharded.total == serial.total


def test_sharded_fixpoint_heavy_rounds_equal_serial(monkeypatch):
    """Force the vectorised full-sweep tier through the sharded arm."""
    import repro.simulation.csr_kernel as kernel

    monkeypatch.setattr(kernel, "SWEEP_FRACTION", 0.0)
    for seed in (1, 5, 11):
        graph = make_random_graph(seed, num_nodes=24, num_edges=60)
        pattern = make_random_pattern(seed, num_nodes=4, extra_edges=2, cyclic=True)
        serial = maximal_simulation(pattern, graph)
        sharded = maximal_simulation(pattern, graph, sim_shards=4)
        assert sharded.sim == serial.sim


def test_process_backend_equals_serial():
    graph = make_random_graph(4, num_nodes=18, num_edges=40)
    pattern = make_random_pattern(4, num_nodes=3, extra_edges=2, cyclic=True)
    serial = maximal_simulation(pattern, graph)
    sharded = maximal_simulation(
        pattern, graph, sim_shards=2, shard_backend="process"
    )
    assert sharded.sim == serial.sim


def test_shard_runner_gating_and_caching():
    from repro.errors import MatchingError
    from repro.parallel import ShardRunner, shard_runner

    graph = make_random_graph(6, num_nodes=16, num_edges=30)
    snap = graph.snapshot()
    assert shard_runner(snap, 0) is None
    assert shard_runner(snap, 1) is None
    runner = shard_runner(snap, 3)
    assert runner is shard_runner(snap, 3)  # cached per (shards, backend)
    assert runner is not shard_runner(snap, 4)
    with pytest.raises(MatchingError):
        ShardRunner(snap, 3, backend="fibers")
    with pytest.raises(MatchingError):
        ShardRunner(snap, 1)


def test_more_shards_than_nodes_degrades_gracefully():
    graph = make_random_graph(8, num_nodes=5, num_edges=8)
    pattern = make_random_pattern(8, num_nodes=3, extra_edges=1, cyclic=False)
    serial = maximal_simulation(pattern, graph)
    sharded = maximal_simulation(pattern, graph, sim_shards=64)
    assert sharded.sim == serial.sim
