"""The session cache's write repair: relation, ranking and fallback.

A ``MatchSession`` caches a pattern's relation at its first read, and
from then on its cache repairs the relation at each write.  Every repair
test caches the pattern before mutating the graph, so it checks the
repair, not a fresh build, and reads the result through the cache
(``session.cache.simulation``, ``repair_stats``) or a session query.
``test_uncached_pattern_is_built_after_the_writes`` pins the other case.
"""

import gc
import weakref

import pytest

from repro import api
from repro.datasets.examples import figure1
from repro.errors import MatchingError
from repro.graph.delta import DeltaOp
from repro.graph.digraph import Graph
from repro.patterns.pattern import pattern_from_edges
from repro.ranking.relevance import NormalisedRelevance
from repro.session import MatchSession
from repro.session.cache import repair_threshold
from repro.simulation.match import maximal_simulation
from repro.topk.match_all import match_baseline


@pytest.fixture()
def fig():
    """A fresh, thawed Figure 1 network per test (mutation-safe)."""
    fig = figure1()
    fig.graph.thaw()
    return fig


@pytest.fixture()
def always_recompute(monkeypatch):
    """Force the repair's fallback: every touched frontier overflows."""
    monkeypatch.setattr("repro.session.cache.repair_threshold", lambda pattern, graph: 0)


def serving(graph, *patterns):
    """A refresh-mode session with each pattern's relation cached."""
    session = MatchSession(graph, on_mutation="refresh")
    for pattern in patterns:
        session.cache.simulation(pattern)
    return session


def relation(session, pattern):
    """The cached relation; a miss would mean no write repaired it."""
    result, hit = session.cache.simulation(pattern)
    assert hit
    return result


def assert_fresh(session, pattern, graph, k=10):
    """The repaired relation and ``Match`` answer equal fresh ones."""
    assert relation(session, pattern).sim == maximal_simulation(pattern, graph).sim
    got = session.baseline(pattern, k)
    expected = api.baseline_matches(pattern, graph, k)
    assert got.matches == expected.matches
    assert got.scores == expected.scores


class TestStaticAgreement:
    def test_initial_relation_matches_batch(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            result = relation(session, fig.pattern)
            assert result.sim == maximal_simulation(fig.pattern, fig.graph).sim
            assert result.total
            assert fig.names(result.output_matches()) == {"PM1", "PM2", "PM3", "PM4"}

    def test_top_k_matches_baseline_ranking(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            expected = match_baseline(fig.pattern, fig.graph, 2)
            got = session.baseline(fig.pattern, 2)
            assert got.matches == expected.matches
            assert got.scores == expected.scores

    def test_diversified_matches_example6(self, fig):
        # Example 6: at lambda = 0.5, k = 2 the diversified answer is
        # {PM2, PM1} (max F among all pairs; TopKDiv finds the best pair).
        with serving(fig.graph, fig.pattern) as session:
            result = session.diversified(fig.pattern, 2, lam=0.5, method="approx")
            assert fig.names(result.matches) == {"PM1", "PM2"}


class TestMaintenance:
    def test_edge_deletion_shrinks_relation(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            # PM1's team depends on the DB1 <-> PRG1 cycle; cutting
            # PRG1 -> DB1 breaks it and costs PM1 its match.
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            result = relation(session, fig.pattern)
            assert result.sim == maximal_simulation(fig.pattern, fig.graph).sim
            assert fig.names(result.output_matches()) == {"PM2", "PM3", "PM4"}
            stats = session.cache.repair_stats(fig.pattern)
            assert stats.ops_applied == 1
            assert stats.incremental_ops == 1
            assert stats.relation_changes == 1

    def test_edge_insertion_grows_relation(self, fig):
        graph, pattern = fig.graph, fig.pattern
        graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        with serving(graph, pattern) as session:
            assert fig.node("PM1") not in relation(session, pattern).output_matches()
            graph.add_edge(fig.node("PRG1"), fig.node("DB1"))
            assert fig.node("PM1") in relation(session, pattern).output_matches()
            assert_fresh(session, pattern, graph)

    def test_totality_flip_to_empty_and_back(self, fig):
        graph = fig.graph
        with serving(graph, fig.pattern) as session:
            st_edges = [
                (src, dst)
                for src, dst in graph.edges()
                if graph.label(dst) == "ST"
            ]
            for src, dst in st_edges:
                graph.remove_edge(src, dst)
            result = relation(session, fig.pattern)
            assert not result.total
            assert result.output_matches() == set()
            assert session.baseline(fig.pattern, 10).matches == []
            src, dst = st_edges[0]
            graph.add_edge(src, dst)
            assert_fresh(session, fig.pattern, graph)

    def test_node_lifecycle(self, fig):
        graph, pattern = fig.graph, fig.pattern
        with serving(graph, pattern) as session:
            # A new PM wired onto PM2's whole team becomes a match...
            new_pm = graph.add_node("PM")
            for name in ("DB2", "PRG3"):
                graph.add_edge(new_pm, fig.node(name))
            assert new_pm in relation(session, pattern).output_matches()
            # ... and removing it restores the original answer.
            graph.remove_node(new_pm)
            result = relation(session, pattern)
            assert result.sim == maximal_simulation(pattern, graph).sim
            assert fig.names(result.output_matches()) == {"PM1", "PM2", "PM3", "PM4"}

    def test_ranking_refreshes_after_update(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            before = session.baseline(fig.pattern, 4)
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            after = session.baseline(fig.pattern, 4)
            assert fig.node("PM1") in before.matches
            assert fig.node("PM1") not in after.matches
            assert_fresh(session, fig.pattern, fig.graph, k=4)

    def test_batched_delta_keeps_relation_consistent(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            prg1, db1, pm1 = fig.node("PRG1"), fig.node("DB1"), fig.node("PM1")
            fig.graph.apply_delta(
                [
                    DeltaOp.remove_edge(prg1, db1),
                    DeltaOp.add_node("PRG"),
                    DeltaOp.add_edge(pm1, fig.node("PRG3")),
                ]
            )
            assert_fresh(session, fig.pattern, fig.graph)

    def test_refresh_keeps_the_repaired_relation(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            session.refresh()
            assert not session.stale
            assert session.cache.stats.selective_refreshes == 1
            assert session.cache.repair_stats(fig.pattern).full_recomputes == 0
            assert fig.names(relation(session, fig.pattern).output_matches()) == {
                "PM2",
                "PM3",
                "PM4",
            }
            assert_fresh(session, fig.pattern, fig.graph)


class TestThresholdFallback:
    def test_overflow_on_deletion_recomputes(self, fig, always_recompute):
        with serving(fig.graph, fig.pattern) as session:
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            stats = session.cache.repair_stats(fig.pattern)
            assert stats.full_recomputes == 1
            assert stats.relation_changes == 1
            assert_fresh(session, fig.pattern, fig.graph)

    def test_overflow_on_insertion_recomputes(self, fig, always_recompute):
        graph, pattern = fig.graph, fig.pattern
        graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        with serving(graph, pattern) as session:
            graph.add_edge(fig.node("PRG1"), fig.node("DB1"))
            assert session.cache.repair_stats(pattern).full_recomputes == 1
            assert_fresh(session, pattern, graph)

    def test_default_threshold_scales_with_inputs(self, fig):
        assert repair_threshold(fig.pattern, fig.graph) >= 256
        assert repair_threshold(fig.pattern, fig.graph) == max(
            256, fig.pattern.num_edges * fig.graph.num_nodes // 4
        )

    def test_node_removal_sees_its_edge_events_first(self, fig):
        # The graph emits a removed node's edge removals before the
        # remove_node event, so the repair never has to guess.
        with serving(fig.graph, fig.pattern) as session:
            db2 = fig.node("DB2")
            assert db2 in relation(session, fig.pattern).sim[fig.query_nodes["DB"]]
            fig.graph.remove_node(db2)
            assert session.cache.repair_stats(fig.pattern).full_recomputes == 0
            assert_fresh(session, fig.pattern, fig.graph)

    def test_self_loop_edge_removal_cascades_fully(self):
        # Regression: edge_removed used to test seed membership against
        # the already-mutated relation.  Removing a self-loop made an
        # earlier pattern edge's discard mask a later pattern edge's
        # seed, leaving a phantom pair the propagation loop could never
        # reach (the deleted edge is gone from the adjacency).
        g = Graph()
        a = g.add_node("A")
        g.add_edge(a, a)
        pattern = pattern_from_edges(["A", "A", "A"], [(2, 0), (0, 1)], output=2)
        with serving(g, pattern) as session:
            assert relation(session, pattern).total
            g.remove_edge(a, a)
            result = relation(session, pattern)
            assert result.sim == maximal_simulation(pattern, g).sim
            assert result.output_matches() == set()


class TestDispatch:
    def test_label_filter_skips_unrelated_ops(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            # BA/UD churn can never touch a PM/DB/PRG/ST pattern.
            fig.graph.remove_edge(fig.node("BA1"), fig.node("UD1"))
            fig.graph.add_edge(fig.node("UD1"), fig.node("UD2"))
            stats = session.cache.repair_stats(fig.pattern)
            assert stats.ops_applied == 0
            assert stats.ops_skipped == 2

    def test_each_pattern_sees_only_its_labels(self, fig):
        analysts = pattern_from_edges(["BA", "UD"], [(0, 1)], output=0)
        with serving(fig.graph, fig.pattern, analysts) as session:
            fig.graph.remove_edge(fig.node("BA1"), fig.node("UD1"))
            assert session.cache.repair_stats(analysts).ops_applied == 1
            assert session.cache.repair_stats(fig.pattern).ops_applied == 0
            # BA1 still matches through its remaining UD2 edge.
            assert fig.node("BA1") in relation(session, analysts).output_matches()
            fig.graph.remove_edge(fig.node("BA1"), fig.node("UD2"))
            result = relation(session, analysts)
            assert not result.total
            assert result.output_matches() == set()

    def test_wildcard_patterns_are_not_starved(self, fig):
        # A ``label in pattern_labels`` membership test would never match
        # the wildcard and silently skip every op; the interest filter
        # must treat "*" as matching any label on its pattern-edge side.
        wild = pattern_from_edges(["PM", "*"], [(0, 1)], output=0)
        with serving(fig.graph, wild) as session:
            fig.graph.remove_edge(fig.node("PM1"), fig.node("DB1"))
            assert session.cache.repair_stats(wild).ops_applied == 1
            # The wildcard endpoint accepts *any* target label, including
            # one no concrete query node carries.
            fig.graph.add_edge(fig.node("PM2"), fig.node("UD1"))
            assert session.cache.repair_stats(wild).ops_applied == 2

    def test_wildcard_dispatch_skips_unrelated_edges_but_stays_exact(self, fig):
        wild = pattern_from_edges(["PM", "*"], [(0, 1)], output=0)
        with serving(fig.graph, wild) as session:
            # Neither endpoint can sit on a ``PM -> *`` pattern edge, so
            # the dispatch may skip the op — without drifting from the
            # relation a fresh recompute yields.
            fig.graph.remove_edge(fig.node("BA1"), fig.node("UD1"))
            assert session.cache.repair_stats(wild).ops_skipped == 1
            assert_fresh(session, wild, fig.graph)

    def test_uncached_pattern_is_built_after_the_writes(self, fig):
        # Writes repair only the patterns already cached; one read for
        # the first time afterwards is a fresh build over the new graph.
        analysts = pattern_from_edges(["BA", "UD"], [(0, 1)], output=0)
        with serving(fig.graph, fig.pattern) as session:
            fig.graph.remove_edge(fig.node("BA1"), fig.node("UD1"))
            assert session.cache.repair_stats(analysts).ops_applied == 0
            result, hit = session.cache.simulation(analysts)
            assert not hit
            assert result.sim == maximal_simulation(analysts, fig.graph).sim
            fig.graph.remove_edge(fig.node("BA1"), fig.node("UD2"))
            assert session.cache.repair_stats(analysts).ops_applied == 1
            assert relation(session, analysts).output_matches() == set()


class TestRankingCacheReuse:
    def test_irrelevant_edge_keeps_cached_context(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            cached = session.cache.ranking_context(fig.pattern)
            # BA1 -> UD1 churn: neither endpoint matches any query node.
            fig.graph.remove_edge(fig.node("BA1"), fig.node("UD1"))
            assert session.cache.ranking_context(fig.pattern) is cached

    def test_match_region_edge_drops_cache(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            cached = session.cache.ranking_context(fig.pattern)
            # PM4 -> DB3 joins two matches across a pattern edge: relevant
            # sets change even though the relation does not.
            fig.graph.add_edge(fig.node("PM4"), fig.node("DB3"))
            assert session.cache.repair_stats(fig.pattern).relation_changes == 0
            assert session.cache.ranking_context(fig.pattern) is not cached
            assert_fresh(session, fig.pattern, fig.graph)


class TestOptions:
    def test_custom_relevance_fn(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            result = session.baseline(fig.pattern, 2, relevance_fn=NormalisedRelevance())
            assert all(0.0 <= s <= 1.0 for s in result.scores.values())
            expected = api.baseline_matches(
                fig.pattern, fig.graph, 2, relevance_fn=NormalisedRelevance()
            )
            assert result.matches == expected.matches
            assert result.scores == expected.scores

    def test_invalid_k_rejected(self, fig):
        with serving(fig.graph, fig.pattern) as session:
            with pytest.raises(MatchingError):
                session.baseline(fig.pattern, 0)

    def test_close_detaches(self, fig):
        session = serving(fig.graph, fig.pattern)
        stats = session.cache.repair_stats(fig.pattern)
        session.close()
        fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        assert stats.ops_applied == 0
        with pytest.raises(MatchingError):
            session.cache.simulation(fig.pattern)
        with pytest.raises(MatchingError):
            session.baseline(fig.pattern, 2)


class TestLifecycle:
    def test_dropping_the_graph_reclaims_session_and_cache(self):
        # Built here, not by the fixture, which pytest keeps alive.
        fig = figure1()
        fig.graph.thaw()
        session = serving(fig.graph, fig.pattern)
        fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        graph_ref = weakref.ref(fig.graph)
        cache_ref = weakref.ref(session.cache)
        del fig, session
        gc.collect()
        assert graph_ref() is None
        assert cache_ref() is None

    def test_sessions_on_one_graph_repair_independently(self, fig):
        first = serving(fig.graph, fig.pattern)
        with serving(fig.graph, fig.pattern) as second:
            assert first.cache is not second.cache
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            assert first.cache.repair_stats(fig.pattern).ops_applied == 1
            assert second.cache.repair_stats(fig.pattern).ops_applied == 1
            # Closing one session leaves the other one repairing.
            closed_stats = first.cache.repair_stats(fig.pattern)
            first.close()
            fig.graph.remove_edge(fig.node("PM2"), fig.node("DB2"))
            assert closed_stats.ops_applied == 1
            assert second.cache.repair_stats(fig.pattern).ops_applied == 2
            assert_fresh(second, fig.pattern, fig.graph)
