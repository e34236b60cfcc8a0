"""Generalised top-k matching (Proposition 4): custom relevance functions
flow through the early-termination engine and still match the oracle."""

import pytest

from repro.ranking.context import RankingContext
from repro.ranking.generalized import (
    CommonNeighbours,
    JaccardCoefficient,
    PreferentialAttachment,
)
from repro.simulation.match import maximal_simulation
from repro.topk.cyclic import top_k
from repro.topk.match_all import match_baseline

from tests.reference import planted_instance

FUNCTIONS = [PreferentialAttachment, CommonNeighbours, JaccardCoefficient]


def _true_sum(ctx, fn, matches):
    fn.prepare(ctx)
    return sum(fn.value(ctx, v, ctx.relevant[v]) for v in matches)


class TestGeneralizedOnFigure1:
    @pytest.mark.parametrize("make_fn", FUNCTIONS)
    def test_engine_matches_oracle(self, fig1, make_fn):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        oracle = match_baseline(fig1.pattern, fig1.graph, 2, relevance_fn=make_fn())
        engine = top_k(fig1.pattern, fig1.graph, 2, relevance_fn=make_fn())
        fn = make_fn()
        assert abs(
            _true_sum(ctx, fn, engine.matches) - _true_sum(ctx, fn, oracle.matches)
        ) < 1e-9

    def test_preferential_attachment_ranks_like_cardinality_here(self, fig1):
        # |R(u)| is constant per pattern, so PA ranks exactly like δr.
        plain = top_k(fig1.pattern, fig1.graph, 2)
        pa = top_k(fig1.pattern, fig1.graph, 2, relevance_fn=PreferentialAttachment())
        assert set(plain.matches) == set(pa.matches)


class TestGeneralizedOnRandomGraphs:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("make_fn", FUNCTIONS)
    def test_engine_matches_oracle(self, seed, make_fn):
        g, q = planted_instance(
            seed + 41, cyclic=seed % 2 == 0, pattern_nodes=3, graph_nodes=16, noise_edges=30
        )
        result = maximal_simulation(q, g)
        assert result.total
        ctx = RankingContext(q, g, result)
        fn = make_fn()
        oracle = match_baseline(q, g, 2, relevance_fn=make_fn())
        engine = top_k(q, g, 2, relevance_fn=make_fn())
        assert abs(
            _true_sum(ctx, fn, engine.matches) - _true_sum(ctx, fn, oracle.matches)
        ) < 1e-9
