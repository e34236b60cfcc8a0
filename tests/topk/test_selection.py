"""Tests for the engine's visiting order."""

from repro.topk.cyclic import top_k
from repro.topk.engine import TopKEngine
from repro.topk.policies import RelevancePolicy
from repro.session import ExecutionConfig


def _engine(fig1, **config):
    return TopKEngine(
        fig1.pattern, fig1.graph, 2, policy=RelevancePolicy(),
        config=ExecutionConfig(**config),
    )


class TestBoundOrder:
    def test_descending_bound_ties_to_smaller_id(self, fig1):
        engine = _engine(fig1)
        order, bounds = engine.visit_order()
        matches = engine.evaluation.matches
        keys = [(-bounds[pid], matches[pid]) for pid in order]
        assert keys == sorted(keys)

    def test_bounds_dominate_exact_values(self, fig1):
        engine = _engine(fig1)
        order, bounds = engine.visit_order()
        assert all(engine.value(pid) <= bounds[pid] for pid in order)


class TestRandomOrder:
    def test_is_permutation(self, fig1):
        engine = _engine(fig1, optimized=False, seed=1)
        order, _ = engine.visit_order()
        assert sorted(order) == list(range(engine.num_matches))

    def test_seeded_determinism(self, fig1):
        runs = [
            top_k(fig1.pattern, fig1.graph, 2, optimized=False, seed=5).matches
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
