"""Tests for the BoundIndex / SimBoundIndex soundness."""

import pytest

from repro.errors import MatchingError
from repro.index.label_index import BOUND_STRATEGIES, BoundIndex, SimBoundIndex
from repro.ranking.context import RankingContext
from repro.simulation.candidates import compute_candidates
from repro.simulation.match import maximal_simulation

from tests.reference import planted_instance


class TestBoundIndex:
    def test_unknown_strategy_rejected(self, fig1):
        cands = compute_candidates(fig1.pattern, fig1.graph)
        with pytest.raises(MatchingError):
            BoundIndex(fig1.pattern, fig1.graph, cands, "bogus")

    def test_global_bound_is_cuo(self, fig1):
        cands = compute_candidates(fig1.pattern, fig1.graph)
        index = BoundIndex(fig1.pattern, fig1.graph, cands, "global")
        assert index.global_bound(0) == 11

    @pytest.mark.parametrize("strategy", BOUND_STRATEGIES)
    def test_soundness_on_figure1(self, fig1, strategy):
        cands = compute_candidates(fig1.pattern, fig1.graph)
        index = BoundIndex(fig1.pattern, fig1.graph, cands, strategy)
        ctx = RankingContext(fig1.pattern, fig1.graph)
        for v in ctx.matches:
            assert index.upper(0, v) >= len(ctx.relevant[v])

    @pytest.mark.parametrize("strategy", BOUND_STRATEGIES)
    @pytest.mark.parametrize("seed", range(5))
    def test_soundness_on_random_graphs(self, strategy, seed):
        g, q = planted_instance(seed + 7, cyclic=True, graph_nodes=16, noise_edges=34)
        cands = compute_candidates(q, g)
        result = maximal_simulation(q, g, cands)
        assert result.total
        ctx = RankingContext(q, g, result)
        index = BoundIndex(q, g, cands, strategy)
        for v in ctx.matches:
            assert index.upper(q.output_node, v) >= len(ctx.relevant[v])

    def test_hop_tighter_than_global(self, fig1):
        cands = compute_candidates(fig1.pattern, fig1.graph)
        hop = BoundIndex(fig1.pattern, fig1.graph, cands, "hop")
        glob = BoundIndex(fig1.pattern, fig1.graph, cands, "global")
        for v in cands.lists[0]:
            assert hop.upper(0, v) <= glob.upper(0, v)


class TestSimBoundIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_soundness_on_random_graphs(self, seed):
        g, q = planted_instance(seed + 7, cyclic=seed % 2 == 0, graph_nodes=16, noise_edges=34)
        result = maximal_simulation(q, g)
        assert result.total
        ctx = RankingContext(q, g, result)
        index = SimBoundIndex(q, g, [set(s) for s in result.sim])
        for v in ctx.matches:
            assert index.upper(q.output_node, v) >= len(ctx.relevant[v])

    def test_tighter_than_label_bounds(self, fig1):
        result = maximal_simulation(fig1.pattern, fig1.graph)
        cands = compute_candidates(fig1.pattern, fig1.graph)
        sim_index = SimBoundIndex(fig1.pattern, fig1.graph, [set(s) for s in result.sim])
        label_index = BoundIndex(fig1.pattern, fig1.graph, cands, "hop")
        for v in result.sim[0]:
            assert sim_index.upper(0, v) <= label_index.upper(0, v)

    def test_exact_on_figure1_pm1(self, fig1):
        result = maximal_simulation(fig1.pattern, fig1.graph)
        index = SimBoundIndex(fig1.pattern, fig1.graph, [set(s) for s in result.sim])
        # PM1's region is isolated: the bound should be exactly its degree of reach.
        assert index.upper(0, fig1.node("PM1")) == 4
