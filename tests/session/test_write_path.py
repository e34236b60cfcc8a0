"""The one write path: a session's cache repairs ``M(Q, G)`` at each write.

Every session keeps its cached match relations current by delta
simulation (:mod:`repro.session.cache`).  That may never change an
answer: across generated streams of all five op kinds, every refresh of
a long-lived session must answer exactly like a fresh session on an
identical twin graph — with and without snapshot patching, and with
the repair's threshold forced to overflow.  The counter checks pin what
the repair keeps and what it drops, and that one pattern's node-op
repair never edits the label bucket lists other patterns share.
"""

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.graph import csr
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern, pattern_from_edges
from repro.patterns.predicates import AttrCompare
from repro.session import ExecutionConfig, MatchSession, QuerySpec
from repro.session.cache import SessionCache
from repro.simulation.candidates import compute_candidates
from repro.simulation.match import maximal_simulation

from tests.conftest import rich_random_graph
from tests.session.test_batch_equivalence import assert_same, mixed_batch

SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CONFIGS = [ExecutionConfig(), ExecutionConfig(snapshot_patching=True)]
CONFIG_IDS = ["default", "patching"]

KINDS = ("remove_edge", "add_edge", "add_node", "remove_node", "set_attrs")


def twin_graphs(seed: int):
    graph = rich_random_graph(seed)
    return graph, pickle.loads(pickle.dumps(graph))


def mutate_both(g1, g2, rng: random.Random, steps: int) -> set[str]:
    """Apply one op stream to both twins; returns the kinds applied.

    Kinds cycle from a random start, so a stream of five or more steps
    applies each kind whenever the graph allows it.
    """
    applied: set[str] = set()
    start = rng.randrange(len(KINDS))
    for step in range(steps):
        kind = KINDS[(start + step) % len(KINDS)]
        edges = list(g1.edges())
        live = [v for v in g1.nodes() if g1.is_live(v)]
        if kind == "remove_edge" and edges:
            src, dst = rng.choice(edges)
            g1.remove_edge(src, dst)
            g2.remove_edge(src, dst)
        elif kind == "add_edge" and len(live) >= 2:
            src, dst = rng.choice(live), rng.choice(live)
            if g1.has_edge(src, dst):
                continue
            g1.add_edge(src, dst)
            g2.add_edge(src, dst)
        elif kind == "add_node":
            label, score = rng.choice("ABC"), rng.randrange(5)
            node = g1.add_node(label, score=score)
            g2.add_node(label, score=score)
            if live:
                target = rng.choice(live)
                g1.add_edge(node, target)
                g2.add_edge(node, target)
        elif kind == "remove_node" and len(live) > 4:
            node = rng.choice(live)
            g1.remove_node(node)
            g2.remove_node(node)
        elif kind == "set_attrs" and live:
            node, score = rng.choice(live), rng.randrange(5)
            g1.set_attrs(node, score=score)
            g2.set_attrs(node, score=score)
        else:
            continue
        applied.add(kind)
    return applied


def predicated_spec() -> QuerySpec:
    """A pattern whose middle node filters on ``score``: attrs ops move it."""
    pattern = Pattern()
    a = pattern.add_node("A", output=True)
    b = pattern.add_node("B", predicate=AttrCompare("score", ">=", 2))
    c = pattern.add_node("C")
    pattern.add_edge(a, b)
    pattern.add_edge(b, c)
    pattern.add_edge(c, a)
    return QuerySpec(pattern, k=3)


def check_stream(seed: int, config: ExecutionConfig, rounds: int) -> set[str]:
    """Refresh after each burst; every answer equals a fresh twin session's."""
    graph, twin = twin_graphs(seed)
    specs = mixed_batch(seed) + [predicated_spec()]
    kinds: set[str] = set()
    with MatchSession(graph, config=config, on_mutation="refresh") as session:
        session.run_batch(specs)
        for round_ in range(rounds):
            kinds |= mutate_both(graph, twin, random.Random(seed * 97 + round_), 6)
            session.refresh()
            got = session.run_batch(specs)
            with MatchSession(twin) as fresh:
                want = fresh.run_batch(specs)
            for a, b in zip(got, want):
                assert_same(a, b)
            for spec in specs:
                repaired, _ = session.cache.simulation(spec.pattern)
                scratch = maximal_simulation(spec.pattern, twin)
                assert (repaired.sim, repaired.total) == (scratch.sim, scratch.total)
    return kinds


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@given(seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
@SETTINGS
def test_every_refresh_equals_a_fresh_session(config, seed, rounds):
    check_stream(seed, config, rounds)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_streams_cover_every_op_kind(config):
    kinds: set[str] = set()
    for seed in range(3):
        kinds |= check_stream(seed, config, rounds=2)
    assert kinds == set(KINDS)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("seed", range(4))
def test_forced_overflow_reruns_the_fixpoint(config, seed, monkeypatch):
    monkeypatch.setattr(
        "repro.session.cache.repair_threshold", lambda pattern, graph: 0
    )
    check_stream(seed, config, rounds=2)


def test_forced_overflow_is_counted(monkeypatch):
    monkeypatch.setattr(
        "repro.session.cache.repair_threshold", lambda pattern, graph: 0
    )
    graph, _, b, c, _ = chain_graph()
    pattern = chain_pattern()
    with MatchSession(graph, on_mutation="refresh") as session:
        session.top_k(pattern, k=2)
        builds = session.cache.stats.sim_builds
        graph.remove_edge(b, c)  # the removal cascades: past threshold 0
        stats = session.cache.repair_stats(pattern)
        assert stats.full_recomputes == 1
        assert session.cache.stats.sim_builds == builds + 1
        assert session.cache.stats.candidates_hits == 1  # rows reused
        assert_same(session.top_k(pattern, k=2), api.top_k_matches(pattern, graph, 2))


# ----------------------------------------------------------------------
# what a write keeps and what it drops
# ----------------------------------------------------------------------
def chain_graph():
    """Two ``A -> B -> C`` chains, plus a ``B`` node without a ``C``."""
    graph = Graph()
    a, b, c = graph.add_node("A"), graph.add_node("B"), graph.add_node("C")
    a2, b2, c2 = graph.add_node("A"), graph.add_node("B"), graph.add_node("C")
    dead = graph.add_node("B")
    graph.add_edges([(a, b), (b, c), (a2, b2), (b2, c2)])
    return graph, a, b, c, dead


def chain_pattern() -> Pattern:
    return pattern_from_edges(["A", "B", "C"], [(0, 1), (1, 2)], output=0)


def test_edge_joining_no_match_pair_keeps_the_evaluation():
    graph, a, _, _, dead = chain_graph()
    pattern = chain_pattern()
    with MatchSession(graph, on_mutation="refresh", reuse_results=False) as session:
        session.top_k(pattern, k=2)
        stats = session.cache.stats
        builds, hits = stats.paircsr_builds, stats.paircsr_hits
        # An A -> B edge: the label signature lets it through, but the
        # B end matches nothing, so no match-pair edge appears.
        graph.add_edge(a, dead)
        session.refresh()
        result = session.top_k(pattern, k=2)
        assert session.cache.repair_stats(pattern).ops_applied == 1
        assert (stats.paircsr_builds, stats.paircsr_hits) == (builds, hits + 1)
        assert_same(result, api.top_k_matches(pattern, graph, 2))


def test_relation_change_drops_the_evaluation():
    graph, _, _, _, _ = chain_graph()
    pattern = chain_pattern()
    with MatchSession(graph, on_mutation="refresh", reuse_results=False) as session:
        session.top_k(pattern, k=2)
        stats = session.cache.stats
        builds, dropped = stats.paircsr_builds, stats.artifacts_dropped
        graph.remove_edge(4, 5)  # b2 -> c2: b2 and a2 stop matching
        assert session.cache.repair_stats(pattern).relation_changes == 1
        assert stats.artifacts_dropped > dropped
        session.refresh()
        result = session.top_k(pattern, k=2)
        assert stats.paircsr_builds == builds + 1
        assert stats.sim_builds == 1  # repaired, never recomputed
        assert_same(result, api.top_k_matches(pattern, graph, 2))


def test_match_pair_edge_drops_the_evaluation_without_a_relation_change():
    graph, a, _, _, _ = chain_graph()
    pattern = chain_pattern()
    with MatchSession(graph, on_mutation="refresh", reuse_results=False) as session:
        before = session.top_k(pattern, k=2)
        builds = session.cache.stats.paircsr_builds
        graph.add_edge(a, 4)  # a -> b2 joins two matches across A -> B
        session.refresh()
        after = session.top_k(pattern, k=2)
        assert session.cache.repair_stats(pattern).relation_changes == 0
        assert session.cache.stats.paircsr_builds == builds + 1
        assert after.scores[a] > before.scores[a]
        assert_same(after, api.top_k_matches(pattern, graph, 2))


def test_candidate_row_change_drops_the_rankings():
    graph, *_ = chain_graph()
    pattern = chain_pattern()
    with MatchSession(graph, on_mutation="refresh") as session:
        before = session.diversified(pattern, k=2, method="approx")
        graph.add_node("B")  # joins can(B) but, without a C, not M(Q, G)
        session.refresh()
        assert session.cache.repair_stats(pattern).relation_changes == 0
        after = session.diversified(pattern, k=2, method="approx")
        # C_uo grew by one, so the normalised relevance in F moved.
        assert after.objective_value != before.objective_value
        assert_same(
            after, api.diversified_matches(pattern, graph, 2, method="approx")
        )


def test_node_repair_copies_shared_bucket_rows():
    graph, *_ = chain_graph()
    # Two unpredicated A rows in one pattern and one in another: all
    # three are the one A bucket list until a node op repairs them.
    twin_a = pattern_from_edges(["A", "A", "B"], [(0, 2), (1, 2)], output=0)
    other = pattern_from_edges(["A", "B"], [(0, 1)], output=0)
    with MatchSession(graph, on_mutation="refresh") as session:
        session.top_k(twin_a, k=2)
        session.top_k(other, k=2)
        bucket = session.cache.simulation(other)[0].candidates.lists[0]
        assert session.cache.simulation(twin_a)[0].candidates.lists[0] is bucket
        shared = list(bucket)
        node = graph.add_node("A")
        assert bucket == shared  # the shared list itself is untouched
        for pattern in (twin_a, other):
            rows = session.cache.simulation(pattern)[0].candidates
            fresh = compute_candidates(pattern, graph)
            assert rows.lists == fresh.lists
            assert rows.sets == fresh.sets
            assert all(row.count(node) <= 1 for row in rows.lists)


def test_untouched_pattern_artifacts_survive_refresh():
    """A delta on labels {C, D} keeps the AB pattern's entire pipeline
    and repairs the CD pattern's relation in place."""
    graph = _graph_with_labels(5)
    p_ab, p_cd = _two_label_patterns()
    with MatchSession(graph, on_mutation="refresh") as session:
        first_ab = session.top_k(p_ab, k=5)
        session.top_k(p_cd, k=5)
        stats = session.cache.stats
        builds_before = (
            stats.candidates_builds,
            stats.sim_builds,
            stats.paircsr_builds,
        )
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
        assert session.cache.repair_stats(p_ab).ops_skipped == 1
        assert session.cache.repair_stats(p_cd).ops_applied == 1
        again_ab = session.top_k(p_ab, k=5)
        assert_same(again_ab, first_ab)
        again_cd = session.top_k(p_cd, k=5)
        # Neither pattern reran candidates or the fixpoint.
        assert (stats.candidates_builds, stats.sim_builds) == builds_before[:2]
        assert_same(again_cd, api.top_k_matches(p_cd, graph, 5))


def _two_label_patterns():
    """Two patterns over disjoint label sets (AB vs CD)."""
    return (
        pattern_from_edges(["A", "B"], [(0, 1)], output=0),
        pattern_from_edges(["C", "D"], [(0, 1)], output=0),
    )


def _graph_with_labels(seed: int):
    rng = random.Random(seed)
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


def test_stored_results_survive_unrelated_deltas():
    graph = _graph_with_labels(6)
    p_ab, _ = _two_label_patterns()
    with MatchSession(graph, on_mutation="refresh") as session:
        session.top_k(p_ab, k=4)
        c_nodes = [v for v in graph.nodes() if graph.label(v) == "C"]
        graph.set_attrs(c_nodes[0], w=3)  # attrs op on an unrelated label
        session.refresh()
        reused_before = session.stats.results_reused
        session.top_k(p_ab, k=4)
        assert session.stats.results_reused == reused_before + 1


def test_snapshot_patching_only_attaches_the_patcher():
    graph = _graph_with_labels(8)
    p_ab, _ = _two_label_patterns()
    with MatchSession(graph, on_mutation="refresh") as session:
        session.top_k(p_ab, k=3)
    assert csr.patcher_of(graph) is None
    with MatchSession(
        graph, config=ExecutionConfig(snapshot_patching=True), on_mutation="refresh"
    ) as session:
        assert csr.patcher_of(graph) is not None
        session.top_k(p_ab, k=3)
        a_nodes = [v for v in graph.nodes() if graph.label(v) == "A"]
        b_nodes = [v for v in graph.nodes() if graph.label(v) == "B"]
        if graph.has_edge(a_nodes[0], b_nodes[-1]):
            graph.remove_edge(a_nodes[0], b_nodes[-1])
        else:
            graph.add_edge(a_nodes[0], b_nodes[-1])
        session.refresh()
        result = session.top_k(p_ab, k=3)
        # The write cycle read only a repaired relation: no snapshot.
        assert not csr.has_cached_snapshot(graph)
        assert_same(result, api.top_k_matches(p_ab, graph, 3))


def test_patched_snapshot_cannot_serve_stale_buckets():
    """Bucket-token regression: after a patch touches label A, the A
    bucket must be rebuilt from the patched snapshot, not served from
    the pre-patch entry."""
    graph = _graph_with_labels(9)
    p_ab, _ = _two_label_patterns()
    with MatchSession(
        graph, config=ExecutionConfig(snapshot_patching=True), on_mutation="refresh"
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
        graph.add_node("A")
        assert cache.refresh() == "selective"
        cache.close()
    counter = registry.get("repro_session_refresh_total")
    assert counter is not None
    modes = {labels["mode"]: value for labels, value in counter.samples()}
    assert modes == {"selective": 1.0, "wholesale": 1.0}
