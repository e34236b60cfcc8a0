"""Property-based tests (hypothesis) on the library's core invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diversify.approx import top_k_diversified_approx
from repro.ranking.distance import jaccard_distance
from repro.simulation.match import maximal_simulation
from repro.topk.cyclic import top_k

from tests import reference
from tests.conftest import make_random_graph, make_random_pattern
from tests.reference import naive_simulation

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

node_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=12)


class TestJaccardMetricAxioms:
    @given(a=node_sets, b=node_sets)
    @SETTINGS
    def test_symmetry(self, a, b):
        assert jaccard_distance(a, b) == jaccard_distance(b, a)

    @given(a=node_sets)
    @SETTINGS
    def test_identity(self, a):
        assert jaccard_distance(a, a) == 0.0

    @given(a=node_sets, b=node_sets)
    @SETTINGS
    def test_range(self, a, b):
        assert 0.0 <= jaccard_distance(a, b) <= 1.0

    @given(a=node_sets, b=node_sets, c=node_sets)
    @SETTINGS
    def test_triangle_inequality(self, a, b, c):
        # The paper claims delta_d is a metric (Section 3.2).
        assert jaccard_distance(a, c) <= (
            jaccard_distance(a, b) + jaccard_distance(b, c) + 1e-12
        )


class TestSimulationProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_fast_fixpoint_equals_naive(self, seed):
        g = make_random_graph(seed, num_nodes=12, num_edges=24)
        q = make_random_pattern(seed + 1, num_nodes=3, extra_edges=1, cyclic=seed % 2 == 0)
        assert maximal_simulation(q, g).sim == naive_simulation(q, g)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_simulation_is_a_simulation(self, seed):
        # Every surviving pair must satisfy the forward condition.
        g = make_random_graph(seed, num_nodes=12, num_edges=24)
        q = make_random_pattern(seed + 1, num_nodes=3, extra_edges=1)
        sim = maximal_simulation(q, g).sim
        for u in q.nodes():
            for v in sim[u]:
                assert g.label(v) == q.label(u)
                for u_child in q.successors(u):
                    assert any(c in sim[u_child] for c in g.successors(v))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_maximality_no_rejected_pair_fits(self, seed):
        # Greatest fixpoint: adding back any rejected candidate must break
        # the simulation condition immediately (one-step check).
        g = make_random_graph(seed, num_nodes=10, num_edges=18)
        q = make_random_pattern(seed + 1, num_nodes=3, extra_edges=1)
        sim = maximal_simulation(q, g).sim
        for u in q.nodes():
            for v in g.nodes():
                if g.label(v) != q.label(u) or v in sim[u]:
                    continue
                violates = any(
                    not any(c in sim[u_child] for c in g.successors(v))
                    for u_child in q.successors(u)
                )
                assert violates


def planted(seed: int, graph_nodes: int, noise_edges: int):
    """A small instance that matches by construction, so every drawn
    case asserts something."""
    return reference.planted_instance(
        seed, cyclic=seed % 3 == 0, pattern_nodes=3,
        graph_nodes=graph_nodes, noise_edges=noise_edges,
    )


def reference_sets(pattern, graph):
    """Reference ``R(uo, v)`` of every match ``v`` of the output node."""
    sim = reference.simulation(pattern, graph)
    assert sim is not None
    uo = pattern.output_node
    return {v: reference.relevant_set(pattern, graph, sim, uo, v) for v in sim[uo]}


class TestTopKProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(1, 4))
    @SETTINGS
    def test_engine_set_is_optimal(self, seed, k):
        g, q = planted(seed, graph_nodes=14, noise_edges=30)
        values = {v: len(r) for v, r in reference_sets(q, g).items()}
        engine = top_k(q, g, k)
        assert len(engine.matches) == len(set(engine.matches)) == min(k, len(values))
        assert sum(values[v] for v in engine.matches) == reference.optimum(values, k)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_scores_never_exceed_true_relevance(self, seed):
        # Scores are the exact reference relevance, so never above it.
        g, q = planted(seed, graph_nodes=14, noise_edges=30)
        rsets = reference_sets(q, g)
        engine = top_k(q, g, 3)
        assert engine.scores == {v: len(rsets[v]) for v in engine.matches}

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_inspected_never_exceeds_total(self, seed):
        g, q = planted(seed, graph_nodes=14, noise_edges=30)
        mu = len(reference_sets(q, g))
        engine = top_k(q, g, 2)
        assert engine.stats.inspected_matches <= mu


class TestDiversificationProperties:
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        lam=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_approx_ratio_two(self, seed, lam):
        g, q = planted(seed, graph_nodes=30, noise_edges=110)
        rsets = reference_sets(q, g)
        c = reference.normalisation(q, g, q.output_node)
        k = min(3, len(rsets))
        approx = top_k_diversified_approx(q, g, k, lam=lam)
        assert len(approx.matches) == len(set(approx.matches)) == k
        value = reference.objective(rsets, tuple(approx.matches), k, lam, c)
        assert approx.objective_value == pytest.approx(value, abs=1e-12)
        assert value >= reference.diversified_optimum(rsets, k, lam, c) / 2 - 1e-9


class TestGeneratorProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=5, max_value=40),
    )
    @SETTINGS
    def test_synthetic_graph_meets_sizes(self, seed, n):
        from repro.datasets.synthetic import synthetic_graph

        e = min(2 * n, n * (n - 1) // 4)
        g = synthetic_graph(n, e, seed=seed)
        assert g.num_nodes == n
        assert g.num_edges == e

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_dag_mode_is_acyclic(self, seed):
        from repro.datasets.synthetic import synthetic_graph
        from repro.graph.algorithms import is_dag

        g = synthetic_graph(20, 40, seed=seed, cyclic=False)
        assert is_dag(g)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_seeded_determinism(self, seed):
        from repro.datasets.synthetic import synthetic_graph

        a = synthetic_graph(15, 30, seed=seed)
        b = synthetic_graph(15, 30, seed=seed)
        assert list(a.edges()) == list(b.edges())
        assert [a.label(v) for v in a.nodes()] == [b.label(v) for v in b.nodes()]
