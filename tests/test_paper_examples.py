"""End-to-end checks of every worked example in the paper (Examples 2-10).

The Figure 1 collaboration network was reconstructed so that all the
published numbers hold exactly; these tests pin them.
"""

from fractions import Fraction

import pytest

from repro import api
from repro.diversify.approx import top_k_diversified_approx
from repro.diversify.exact import optimal_diversified
from repro.diversify.heuristic import top_k_diversified_heuristic
from repro.ranking.context import RankingContext
from repro.ranking.distance import jaccard_distance
from repro.ranking.diversification import diversification_score
from repro.simulation.match import maximal_simulation
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag
from repro.topk.match_all import match_baseline


@pytest.fixture(scope="module")
def ctx(fig1):
    return RankingContext(fig1.pattern, fig1.graph)


class TestExample2And3:
    def test_graph_matches_pattern(self, fig1):
        result = maximal_simulation(fig1.pattern, fig1.graph)
        assert result.total

    def test_match_relation_has_15_pairs(self, fig1):
        result = maximal_simulation(fig1.pattern, fig1.graph)
        assert result.relation_size == 15

    def test_output_matches_are_the_four_pms(self, fig1):
        matches = api.output_matches(fig1.pattern, fig1.graph)
        assert fig1.names(matches) == {"PM1", "PM2", "PM3", "PM4"}

    def test_match_counts_per_query_node(self, fig1):
        result = maximal_simulation(fig1.pattern, fig1.graph)
        counts = {u: len(result.matches_of(u)) for u in fig1.pattern.nodes()}
        assert counts == {0: 4, 1: 3, 2: 4, 3: 4}  # PM, DB, PRG, ST


class TestExample4RelevantSets:
    EXPECTED = {
        "PM1": {"DB1", "PRG1", "ST1", "ST2"},
        "PM2": {"DB2", "DB3", "PRG2", "PRG3", "PRG4", "ST2", "ST3", "ST4"},
        "PM3": {"DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"},
        "PM4": {"DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"},
    }

    @pytest.mark.parametrize("pm", ["PM1", "PM2", "PM3", "PM4"])
    def test_relevant_set(self, fig1, ctx, pm):
        rset = ctx.relevant[fig1.node(pm)]
        assert fig1.names(rset) == self.EXPECTED[pm]

    def test_top2_total_relevance_is_14(self, fig1, ctx):
        result = match_baseline(fig1.pattern, fig1.graph, 2)
        assert result.total_relevance() == 14.0
        assert fig1.node("PM2") in result.matches


class TestExample5Distances:
    def test_pm3_pm4_indistinguishable(self, fig1, ctx):
        d = jaccard_distance(ctx.relevant[fig1.node("PM3")], ctx.relevant[fig1.node("PM4")])
        assert d == 0.0

    def test_pm1_pm2(self, fig1, ctx):
        d = jaccard_distance(ctx.relevant[fig1.node("PM1")], ctx.relevant[fig1.node("PM2")])
        assert abs(d - 10 / 11) < 1e-12

    def test_pm2_pm3(self, fig1, ctx):
        d = jaccard_distance(ctx.relevant[fig1.node("PM2")], ctx.relevant[fig1.node("PM3")])
        assert abs(d - 1 / 4) < 1e-12

    def test_pm1_pm3_completely_dissimilar(self, fig1, ctx):
        d = jaccard_distance(ctx.relevant[fig1.node("PM1")], ctx.relevant[fig1.node("PM3")])
        assert d == 1.0


class TestExample6LambdaRegimes:
    def test_normalisation_constant_is_11(self, ctx):
        assert ctx.normalisation == 11

    def test_lambda_zero_prefers_pure_relevance(self, fig1, ctx):
        best, _ = optimal_diversified(ctx, 2, lam=0.0)
        names = fig1.names(best)
        assert "PM2" in names and names <= {"PM2", "PM3", "PM4"}

    def test_lambda_one_prefers_pure_diversity(self, fig1, ctx):
        best, _ = optimal_diversified(ctx, 2, lam=1.0)
        assert fig1.names(best) in ({"PM1", "PM3"}, {"PM1", "PM4"})

    def test_middle_lambda_balances(self, fig1, ctx):
        best, _ = optimal_diversified(ctx, 2, lam=0.3)  # 4/33 < 0.3 < 0.5
        assert fig1.names(best) == {"PM1", "PM2"}

    def test_boundary_4_over_33(self, fig1, ctx):
        lam = float(Fraction(4, 33))
        below, _ = optimal_diversified(ctx, 2, lam=lam * 0.9)
        assert "PM2" in fig1.names(below) and "PM1" not in fig1.names(below)
        above, _ = optimal_diversified(ctx, 2, lam=min(0.49, lam * 1.5))
        assert fig1.names(above) == {"PM1", "PM2"}

    def test_above_half_prefers_pm1_pm3(self, fig1, ctx):
        best, _ = optimal_diversified(ctx, 2, lam=0.6)
        assert fig1.names(best) in ({"PM1", "PM3"}, {"PM1", "PM4"})


class TestExample7TopKDag:
    def test_top1_is_pm2_with_relevance_3(self, fig1, q1_dag):
        result = top_k_dag(q1_dag, fig1.graph, 1)
        assert fig1.names(result.matches) == {"PM2"}
        assert result.scores[fig1.node("PM2")] == 3.0

    def test_early_termination_fires(self, fig1, q1_dag):
        result = top_k_dag(q1_dag, fig1.graph, 1)
        assert result.stats.terminated_early
        assert result.stats.inspected_matches < 4


class TestExample8TopKCyclic:
    def test_top2_relevance_matches_oracle(self, fig1):
        result = top_k(fig1.pattern, fig1.graph, 2)
        baseline = match_baseline(fig1.pattern, fig1.graph, 2)
        assert result.total_relevance() == baseline.total_relevance() == 14.0

    def test_pm2_always_included(self, fig1):
        result = top_k(fig1.pattern, fig1.graph, 2)
        assert fig1.node("PM2") in result.matches

    def test_cyclic_relevant_set_includes_self(self, fig1):
        # DB3 sits on the DB2->PRG2->DB3->PRG3 cycle: R(DB, DB3) contains DB3.
        ctx = RankingContext(fig1.pattern, fig1.graph, query_node=fig1.query_nodes["DB"])
        rset = ctx.relevant[fig1.node("DB3")]
        assert fig1.node("DB3") in rset
        assert fig1.names(rset) == {"ST3", "ST4", "DB2", "DB3", "PRG2", "PRG3"}


class TestExample9TopKDiv:
    def test_lambda_half_reaches_optimal_value(self, fig1, ctx):
        result = top_k_diversified_approx(fig1.pattern, fig1.graph, 2, lam=0.5)
        _, best = optimal_diversified(ctx, 2, lam=0.5)
        # At lam=0.5 both {PM1,PM3} and {PM1,PM2} score F = 16/11.
        assert abs(result.objective_value - best) < 1e-9
        assert abs(best - 16 / 11) < 1e-9

    def test_lambda_above_half_returns_pm1_pm3(self, fig1):
        result = top_k_diversified_approx(fig1.pattern, fig1.graph, 2, lam=0.6)
        assert fig1.names(result.matches) in ({"PM1", "PM3"}, {"PM1", "PM4"})


class TestExample10TopKDH:
    def test_low_lambda_returns_pm2_pm3(self, fig1):
        result = top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, lam=0.1)
        names = fig1.names(result.matches)
        assert "PM2" in names and names <= {"PM2", "PM3", "PM4"}

    def test_algorithm_name_reflects_pattern_class(self, fig1, q1_dag):
        cyclic = top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, lam=0.5)
        dag = top_k_diversified_heuristic(q1_dag, fig1.graph, 2, lam=0.5)
        assert cyclic.algorithm == "TopKDH"
        assert dag.algorithm == "TopKDAGDH"


class TestDiversificationScore:
    def test_score_matches_manual_f(self, fig1, ctx):
        pm1, pm3 = fig1.node("PM1"), fig1.node("PM3")
        score = diversification_score(ctx, [pm1, pm3], lam=0.5)
        manual = 0.5 * (4 / 11 + 6 / 11) + 2 * 0.5 / 1 * 1.0
        assert abs(score - manual) < 1e-12
