"""Tests for TopKDH / TopKDAGDH (early-terminating heuristic)."""

import pytest

from repro.bench.harness import exact_objective
from repro.diversify.heuristic import top_k_diversified_heuristic
from repro.errors import MatchingError
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective

from tests.reference import planted_instance


class TestTopKDH:
    def test_returns_k_matches(self, fig1):
        result = top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, lam=0.5)
        assert len(result.matches) == 2

    def test_objective_reported(self, fig1):
        result = top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, lam=0.5)
        assert result.objective_value is not None and result.objective_value > 0

    def test_respects_lambda_extremes(self, fig1):
        relevance_only = top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, lam=0.0)
        names = fig1.names(relevance_only.matches)
        assert "PM2" in names  # the most relevant match always survives lam=0

    def test_quality_vs_exhaustive_f(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        from repro.diversify.exact import optimal_diversified

        for lam in (0.1, 0.3, 0.5):
            result = top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, lam=lam)
            obj = DiversificationObjective(lam=lam, k=2)
            obj.prepare(ctx)
            achieved = obj.score_matches(ctx, result.matches)
            _, best = optimal_diversified(ctx, 2, lam=lam)
            assert achieved >= 0.5 * best - 1e-9

    def test_high_lambda_pays_for_early_termination(self, fig1):
        # At lam=0.9 the optimum needs PM1, which Proposition 3 retires
        # before it is ever inspected: the heuristic (by design — it
        # inspects no more matches than TopK) cannot recover it.  The
        # paper gives no guarantee for TopKDH; we pin the behaviour.
        from repro.diversify.exact import optimal_diversified

        ctx = RankingContext(fig1.pattern, fig1.graph)
        result = top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, lam=0.9)
        obj = DiversificationObjective(lam=0.9, k=2)
        obj.prepare(ctx)
        achieved = obj.score_matches(ctx, result.matches)
        _, best = optimal_diversified(ctx, 2, lam=0.9)
        assert achieved >= 0.25 * best - 1e-9

    def test_mismatched_objective_k_rejected(self, fig1):
        objective = DiversificationObjective(lam=0.5, k=5)
        with pytest.raises(MatchingError):
            top_k_diversified_heuristic(fig1.pattern, fig1.graph, 2, objective=objective)

    def test_nopt_variant_still_correct_size(self, fig1):
        result = top_k_diversified_heuristic(
            fig1.pattern, fig1.graph, 2, lam=0.5, optimized=False, seed=3
        )
        assert len(result.matches) == 2


class TestReportedObjectiveIsExact:
    """``objective_value`` is ``F`` of the returned set: relevance
    normalised by ``C_uo`` over the candidates, as ``exact_objective``
    and ``TopKDiv`` count it."""

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_figure1(self, fig1, k, lam):
        result = top_k_diversified_heuristic(fig1.pattern, fig1.graph, k, lam=lam)
        exact = exact_objective(fig1.pattern, fig1.graph, result.matches, k, lam)
        assert result.objective_value == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("cyclic", [True, False])
    @pytest.mark.parametrize("seed", range(12))
    def test_planted_instances(self, seed, cyclic):
        graph, pattern = planted_instance(seed + 2000, cyclic=cyclic)
        for k, lam in ((2, 0.5), (3, 0.9), (4, 0.1)):
            result = top_k_diversified_heuristic(pattern, graph, k, lam=lam)
            exact = exact_objective(pattern, graph, result.matches, k, lam)
            assert result.objective_value == pytest.approx(exact, abs=1e-9)
