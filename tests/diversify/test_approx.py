"""Tests for TopKDiv (2-approximation)."""

import pytest

from repro.datasets.synthetic import synthetic_graph
from repro.diversify.approx import top_k_diversified_approx
from repro.diversify.exact import optimal_diversified
from repro.errors import MatchingError
from repro.graph.digraph import Graph
from repro.patterns.pattern import pattern_from_edges
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.workloads.pattern_gen import random_dag_pattern


class TestTopKDiv:
    def test_computes_all_matches(self, fig1):
        result = top_k_diversified_approx(fig1.pattern, fig1.graph, 2, lam=0.5)
        assert result.stats.match_ratio == 1.0
        assert result.algorithm == "TopKDiv"

    def test_objective_value_reported(self, fig1):
        result = top_k_diversified_approx(fig1.pattern, fig1.graph, 2, lam=0.6)
        assert result.objective_value is not None

    def test_within_factor_two_of_optimum(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            result = top_k_diversified_approx(fig1.pattern, fig1.graph, 2, lam=lam)
            _, best = optimal_diversified(ctx, 2, lam=lam)
            assert result.objective_value >= best / 2 - 1e-9

    def test_odd_k(self, fig1):
        result = top_k_diversified_approx(fig1.pattern, fig1.graph, 3, lam=0.5)
        assert len(result.matches) == 3

    def test_k_exceeding_matches(self, fig1):
        result = top_k_diversified_approx(fig1.pattern, fig1.graph, 9, lam=0.5)
        assert len(result.matches) == 4

    def test_mismatched_objective_k_rejected(self, fig1):
        objective = DiversificationObjective(lam=0.5, k=3)
        with pytest.raises(MatchingError):
            top_k_diversified_approx(fig1.pattern, fig1.graph, 2, objective=objective)

    def test_no_match_graph(self):
        g = Graph()
        g.add_nodes(["A", "B"])
        q = pattern_from_edges(["A", "B"], [(0, 1)], 0)
        result = top_k_diversified_approx(q, g, 2)
        assert result.matches == []

    @pytest.mark.parametrize("seed", range(6))
    def test_odd_k_last_pick_maximises_objective(self, seed):
        graph = synthetic_graph(120, 400, num_labels=3, seed=seed)
        pattern = random_dag_pattern(graph, 3, 2, seed=seed, min_matches=8)
        ctx = RankingContext(pattern, graph)
        for k in (3, 5, 7):
            for lam in (0.1, 0.5, 0.9):
                result = top_k_diversified_approx(pattern, graph, k, lam=lam, context=ctx)
                objective = DiversificationObjective(lam=lam, k=k)
                objective.prepare(ctx)
                head, last = result.matches[:-1], result.matches[-1]
                best = max(
                    objective.score_matches(ctx, head + [v])
                    for v in ctx.matches
                    if v not in head
                )
                assert objective.score_matches(ctx, head + [last]) >= best - 1e-9
