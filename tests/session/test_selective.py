"""Label-selective invalidation: selective refresh ≡ wholesale refresh.

Under ``ExecutionConfig(snapshot_patching=True)`` a session's refresh
drops only the artifacts whose label signature intersects the
accumulated delta, and small deltas patch the CSR snapshot instead of
recompiling it.  Neither may ever change an answer: across
hypothesis-generated mutation interleavings, a selectively-refreshing
session must return exactly what a wholesale-refreshing session (the
oracle, default config) returns on an identical twin graph.  The
survival property itself — artifacts of patterns whose labels the
write stream missed outlive the refresh — is pinned separately, as is
the wholesale fallback when the pending-op log overflows and the
bucket-token regression (a patched snapshot must never serve a stale
pre-patch bucket).
"""

import pickle
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.patterns.pattern import Pattern
from repro.session import ExecutionConfig, MatchSession
from repro.session.cache import PENDING_OPS_CAP, SessionCache

from tests.conftest import rich_random_graph
from tests.session.test_batch_equivalence import assert_same, mixed_batch

SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SELECTIVE = ExecutionConfig(snapshot_patching=True)


def twin_graphs(seed: int):
    graph = rich_random_graph(seed)
    return graph, pickle.loads(pickle.dumps(graph))


def mutate_both(g1, g2, rng: random.Random, steps: int) -> None:
    """Apply one random structural+attribute stream to both twins."""
    for _ in range(steps):
        roll = rng.random()
        edges = list(g1.edges())
        live = [v for v in g1.nodes() if g1.is_live(v)]
        if roll < 0.35 and edges:
            src, dst = rng.choice(edges)
            g1.remove_edge(src, dst)
            g2.remove_edge(src, dst)
        elif roll < 0.70 and len(live) >= 2:
            src, dst = rng.choice(live), rng.choice(live)
            if not g1.has_edge(src, dst):
                g1.add_edge(src, dst)
                g2.add_edge(src, dst)
        elif roll < 0.80:
            label = rng.choice("ABC")
            g1.add_node(label)
            g2.add_node(label)
        elif roll < 0.90 and len(live) > 4:
            node = rng.choice(live)
            g1.remove_node(node)
            g2.remove_node(node)
        elif live:
            node = rng.choice(live)
            g1.set_attrs(node, w=rng.randrange(10))
            g2.set_attrs(node, w=rng.randrange(10))


@given(seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
@SETTINGS
def test_selective_refresh_equals_wholesale_across_interleavings(seed, rounds):
    g_sel, g_who = twin_graphs(seed)
    specs = mixed_batch(seed)
    with MatchSession(
        g_sel, config=SELECTIVE, on_mutation="refresh"
    ) as selective, MatchSession(g_who, on_mutation="refresh") as wholesale:
        for round_ in range(rounds):
            got = selective.run_batch(specs)
            want = wholesale.run_batch(specs)
            for a, b in zip(got, want):
                assert_same(a, b)
            mutate_both(
                g_sel, g_who, random.Random(seed * 97 + round_), steps=5
            )
        # Final post-mutation round.
        for a, b in zip(selective.run_batch(specs), wholesale.run_batch(specs)):
            assert_same(a, b)
        assert selective.cache.stats.selective_refreshes >= 1


def _two_label_patterns():
    """Two patterns over disjoint label sets (AB vs CD)."""
    p_ab = Pattern()
    a = p_ab.add_node("A")
    b = p_ab.add_node("B")
    p_ab.add_edge(a, b)
    p_ab.set_output(a)
    p_cd = Pattern()
    c = p_cd.add_node("C")
    d = p_cd.add_node("D")
    p_cd.add_edge(c, d)
    p_cd.set_output(c)
    return p_ab, p_cd


def _graph_with_labels(seed: int):
    rng = random.Random(seed)
    from repro.graph.digraph import Graph

    graph = Graph()
    for _ in range(40):
        graph.add_node(rng.choice("ABCD"))
    added = 0
    while added < 120:
        src, dst = rng.randrange(40), rng.randrange(40)
        if not graph.has_edge(src, dst):
            graph.add_edge(src, dst)
            added += 1
    return graph


def test_untouched_pattern_artifacts_survive_refresh():
    """A delta on labels {C, D} keeps the AB pattern's entire pipeline."""
    graph = _graph_with_labels(5)
    p_ab, p_cd = _two_label_patterns()
    with MatchSession(
        graph, config=SELECTIVE, on_mutation="refresh"
    ) as session:
        first_ab = session.top_k(p_ab, k=5)
        session.top_k(p_cd, k=5)
        stats = session.cache.stats
        builds_before = (
            stats.candidates_builds,
            stats.sim_builds,
            stats.paircsr_builds,
        )
        # Mutate only C/D-labelled structure.
        c_nodes = [v for v in graph.nodes() if graph.label(v) == "C"]
        d_nodes = [v for v in graph.nodes() if graph.label(v) == "D"]
        src, dst = c_nodes[0], d_nodes[0]
        if graph.has_edge(src, dst):
            graph.remove_edge(src, dst)
        else:
            graph.add_edge(src, dst)
        session.refresh()
        assert stats.selective_refreshes == 1
        assert stats.artifacts_survived > 0
        again_ab = session.top_k(p_ab, k=5)
        # No rebuilds for the AB pattern: candidates, sim and evaluation all hit.
        assert (
            stats.candidates_builds,
            stats.sim_builds,
            stats.paircsr_builds,
        ) == builds_before
        assert_same(again_ab, first_ab)
        # The CD pattern's artifacts were dropped and rebuild on demand.
        cd_sim_builds = stats.sim_builds
        session.top_k(p_cd, k=5)
        assert stats.sim_builds == cd_sim_builds + 1


def test_stored_results_survive_unrelated_deltas():
    graph = _graph_with_labels(6)
    p_ab, p_cd = _two_label_patterns()
    with MatchSession(
        graph, config=SELECTIVE, on_mutation="refresh"
    ) as session:
        session.top_k(p_ab, k=4)
        c_nodes = [v for v in graph.nodes() if graph.label(v) == "C"]
        graph.set_attrs(c_nodes[0], w=3)  # attrs op on an unrelated label
        session.refresh()
        reused_before = session.stats.results_reused
        session.top_k(p_ab, k=4)
        assert session.stats.results_reused == reused_before + 1


def test_pending_overflow_falls_back_to_wholesale():
    graph = _graph_with_labels(7)
    cache = SessionCache(graph)
    cache.selective = True
    live = [v for v in graph.nodes() if graph.is_live(v)]
    for i in range(PENDING_OPS_CAP + 5):
        graph.set_attrs(live[i % len(live)], tick=i)
    assert cache.pending_ops == []  # overflowed and dropped
    assert cache.refresh() == "wholesale"
    assert cache.stats.wholesale_refreshes == 1
    # The log re-arms after the refresh.
    graph.set_attrs(live[0], tick=-1)
    assert len(cache.pending_ops) == 1
    assert cache.refresh() == "selective"
    cache.close()


def test_selective_cache_off_by_default():
    graph = _graph_with_labels(8)
    with MatchSession(graph, on_mutation="refresh") as session:
        assert session.cache.selective is False
        session.top_k(_two_label_patterns()[0], k=3)
        graph.add_node("A")
        session.refresh()
        assert session.cache.stats.wholesale_refreshes == 1
        assert session.cache.stats.selective_refreshes == 0
    # And no patcher was attached to the graph.
    assert csr.patcher_of(graph) is None


def test_patched_snapshot_cannot_serve_stale_buckets():
    """Bucket-token regression: after a patch touches label A, the A
    bucket must be rebuilt from the patched snapshot, not served from
    the pre-patch entry."""
    graph = _graph_with_labels(9)
    p_ab, _ = _two_label_patterns()
    with MatchSession(
        graph, config=SELECTIVE, on_mutation="refresh"
    ) as session:
        session.top_k(p_ab, k=5)
        new_a = graph.add_node("A")
        b_nodes = [v for v in graph.nodes() if graph.label(v) == "B"]
        graph.add_edge(new_a, b_nodes[0])
        result = session.top_k(p_ab, k=len(b_nodes) + 10)
        # The fresh A-node reaches a B-node, so it must be a candidate:
        # compare against an independent session on the same graph.
        with MatchSession(graph) as oracle:
            assert_same(result, oracle.top_k(p_ab, k=len(b_nodes) + 10))
        snap = graph.snapshot()
        label_id = graph.labels.get("A")
        assert new_a in snap.label_bucket_list(label_id)


def test_refresh_modes_reach_metrics():
    from repro.obs import MetricsRegistry, use_metrics

    graph = _graph_with_labels(10)
    registry = MetricsRegistry()
    with use_metrics(registry):
        cache = SessionCache(graph)
        cache.selective = True
        graph.add_node("A")
        cache.refresh()
        cache.selective = False
        graph.add_node("B")
        cache.refresh()
        cache.close()
    counter = registry.get("repro_session_refresh_total")
    assert counter is not None
    modes = {labels["mode"]: value for labels, value in counter.samples()}
    assert modes["selective"] == 1.0
    # close() routes wholesale too, so >= the one explicit call.
    assert modes["wholesale"] >= 1.0
