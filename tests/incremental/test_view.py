"""Tests for MatchView: the maintained relation, ranking and fallback.

Views follow the graph through their cache's subscription, so every
test mutates the graph and reads the view.
"""

import pytest

from repro import api
from repro.datasets.examples import figure1
from repro.ranking.relevance import NormalisedRelevance
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


class TestStaticAgreement:
    def test_initial_relation_matches_batch(self, fig):
        view = api.register_view(fig.pattern, fig.graph)
        assert view.simulation().sim == maximal_simulation(fig.pattern, fig.graph).sim
        assert view.total
        assert fig.names(view.matches()) == {"PM1", "PM2", "PM3", "PM4"}

    def test_top_k_matches_baseline_ranking(self, fig):
        view = api.register_view(fig.pattern, fig.graph, k=2)
        expected = match_baseline(fig.pattern, fig.graph, 2)
        got = view.top_k()
        assert got.matches == expected.matches
        assert got.scores == expected.scores

    def test_diversified_matches_example6(self, fig):
        # Example 6: at lambda = 0.5, k = 2 the diversified answer is
        # {PM2, PM1} (max F among all pairs; TopKDiv finds the best pair).
        view = api.register_view(fig.pattern, fig.graph, k=2, lam=0.5)
        result = view.diversified()
        assert fig.names(result.matches) == {"PM1", "PM2"}

    def test_simulation_is_a_copy(self, fig):
        view = api.register_view(fig.pattern, fig.graph)
        before = view.simulation()
        fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        assert fig.node("PM1") in before.sim[fig.pattern.output_node]
        assert fig.node("PM1") not in view.matches()


class TestMaintenance:
    def test_edge_deletion_shrinks_relation(self, fig):
        view = api.register_view(fig.pattern, fig.graph)
        # PM1's team depends on the DB1 <-> PRG1 cycle; cutting
        # PRG1 -> DB1 breaks it and costs PM1 its match.
        fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        assert view.simulation().sim == maximal_simulation(fig.pattern, fig.graph).sim
        assert fig.names(view.matches()) == {"PM2", "PM3", "PM4"}
        assert view.stats.incremental_ops == 1
        assert view.stats.relation_changes == 1

    def test_edge_insertion_grows_relation(self, fig):
        graph, pattern = fig.graph, fig.pattern
        graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        view = api.register_view(pattern, graph)
        assert fig.node("PM1") not in view.matches()
        graph.add_edge(fig.node("PRG1"), fig.node("DB1"))
        assert view.simulation().sim == maximal_simulation(pattern, graph).sim
        assert fig.node("PM1") in view.matches()

    def test_totality_flip_to_empty_and_back(self, fig):
        graph = fig.graph
        view = api.register_view(fig.pattern, graph)
        st_edges = [
            (src, dst)
            for src, dst in graph.edges()
            if graph.label(dst) == "ST"
        ]
        for src, dst in st_edges:
            graph.remove_edge(src, dst)
        assert not view.total
        assert view.matches() == set()
        assert view.top_k().matches == []
        src, dst = st_edges[0]
        graph.add_edge(src, dst)
        assert view.simulation().sim == maximal_simulation(fig.pattern, graph).sim

    def test_node_lifecycle(self, fig):
        graph, pattern = fig.graph, fig.pattern
        view = api.register_view(pattern, graph)
        # A new PM wired onto PM2's whole team becomes a match...
        new_pm = graph.add_node("PM")
        for name in ("DB2", "PRG3"):
            graph.add_edge(new_pm, fig.node(name))
        assert new_pm in view.matches()
        # ... and removing it restores the original answer.
        graph.remove_node(new_pm)
        assert view.simulation().sim == maximal_simulation(pattern, graph).sim
        assert fig.names(view.matches()) == {"PM1", "PM2", "PM3", "PM4"}

    def test_ranking_refreshes_after_update(self, fig):
        view = api.register_view(fig.pattern, fig.graph, k=4)
        before = view.top_k()
        fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        after = view.top_k()
        assert fig.node("PM1") in before.matches
        assert fig.node("PM1") not in after.matches
        expected = match_baseline(fig.pattern, fig.graph, 4)
        assert after.matches == expected.matches

    def test_forced_refresh_recomputes(self, fig):
        view = api.register_view(fig.pattern, fig.graph)
        view.refresh()
        assert view.stats.full_recomputes == 1
        assert view.simulation().sim == maximal_simulation(fig.pattern, fig.graph).sim


class TestThresholdFallback:
    def test_overflow_on_deletion_recomputes(self, fig, always_recompute):
        view = api.register_view(fig.pattern, fig.graph)
        fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        assert view.stats.full_recomputes == 1
        assert view.stats.relation_changes == 1
        assert view.simulation().sim == maximal_simulation(fig.pattern, fig.graph).sim

    def test_overflow_on_insertion_recomputes(self, fig, always_recompute):
        graph, pattern = fig.graph, fig.pattern
        graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
        view = api.register_view(pattern, graph)
        graph.add_edge(fig.node("PRG1"), fig.node("DB1"))
        assert view.stats.full_recomputes == 1
        assert view.simulation().sim == maximal_simulation(pattern, graph).sim
        assert view.top_k().matches == match_baseline(pattern, graph, view.k).matches

    def test_default_threshold_scales_with_inputs(self, fig):
        assert repair_threshold(fig.pattern, fig.graph) >= 256
        assert repair_threshold(fig.pattern, fig.graph) == max(
            256, fig.pattern.num_edges * fig.graph.num_nodes // 4
        )

    def test_node_removal_sees_its_edge_events_first(self, fig):
        # The graph emits a removed node's edge removals before the
        # remove_node event, so the repair never has to guess.
        view = api.register_view(fig.pattern, fig.graph)
        db2 = fig.node("DB2")
        assert db2 in view.simulation().sim[fig.query_nodes["DB"]]
        fig.graph.remove_node(db2)
        assert view.stats.full_recomputes == 0
        assert view.simulation().sim == maximal_simulation(fig.pattern, fig.graph).sim

    def test_self_loop_edge_removal_cascades_fully(self):
        # Regression: edge_removed used to test seed membership against
        # the already-mutated relation.  Removing a self-loop made an
        # earlier pattern edge's discard mask a later pattern edge's
        # seed, leaving a phantom pair the propagation loop could never
        # reach (the deleted edge is gone from the adjacency).
        from repro.graph.digraph import Graph
        from repro.patterns.pattern import pattern_from_edges

        g = Graph()
        a = g.add_node("A")
        g.add_edge(a, a)
        pattern = pattern_from_edges(["A", "A", "A"], [(2, 0), (0, 1)], output=2)
        view = api.register_view(pattern, g)
        assert view.total
        g.remove_edge(a, a)
        oracle = maximal_simulation(pattern, g)
        assert view.simulation().sim == oracle.sim
        assert view.matches() == set()


class TestRankingCacheReuse:
    def test_irrelevant_edge_keeps_cached_context(self, fig):
        view = api.register_view(fig.pattern, fig.graph)
        cached = view.ranking_context()
        # BA1 -> UD1 churn: neither endpoint matches any query node.
        fig.graph.remove_edge(fig.node("BA1"), fig.node("UD1"))
        assert view.ranking_context() is cached

    def test_match_region_edge_drops_cache(self, fig):
        view = api.register_view(fig.pattern, fig.graph)
        cached = view.ranking_context()
        # PM4 -> DB3 joins two matches across a pattern edge: relevant
        # sets change even though the relation does not.
        fig.graph.add_edge(fig.node("PM4"), fig.node("DB3"))
        assert view.stats.relation_changes == 0
        assert view.ranking_context() is not cached
        assert view.top_k().matches == match_baseline(fig.pattern, fig.graph, view.k).matches


class TestOptions:
    def test_custom_relevance_fn(self, fig):
        view = api.register_view(
            fig.pattern, fig.graph, k=2, relevance_fn=NormalisedRelevance()
        )
        result = view.top_k()
        assert all(0.0 <= s <= 1.0 for s in result.scores.values())

    def test_invalid_k_rejected(self, fig):
        from repro.errors import MatchingError

        with pytest.raises(MatchingError):
            api.register_view(fig.pattern, fig.graph, k=0)

    def test_view_of_a_closed_cache_refuses_reads(self, fig):
        from repro.errors import MatchingError

        manager = api.view_manager(fig.graph)
        view = manager.register(fig.pattern, name="q")
        manager.close()
        with pytest.raises(MatchingError):
            view.matches()
