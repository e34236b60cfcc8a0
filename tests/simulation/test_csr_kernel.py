"""The array-backed simulation kernel equals the reference fixpoint."""

import pytest

from repro.datasets.examples import figure1
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern, pattern_from_edges
from repro.patterns.predicates import AttrCompare
from repro.simulation import csr_kernel
from repro.simulation.candidates import compute_candidates
from repro.simulation.match import maximal_simulation

from tests import reference
from tests.conftest import make_random_graph, make_random_pattern


def assert_equals_reference(pattern: Pattern, graph: Graph) -> None:
    result = maximal_simulation(pattern, graph)
    expected = reference.naive_simulation(pattern, graph)
    assert result.sim == expected
    assert result.total == (pattern.num_nodes > 0 and all(expected))
    assert result.candidates.lists == [
        sorted(reference.candidates(pattern, graph, u)) for u in pattern.nodes()
    ]


class TestEquivalence:
    def test_figure1(self):
        fig = figure1()
        assert_equals_reference(fig.pattern, fig.graph)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed):
        g = make_random_graph(seed, num_nodes=16, num_edges=34)
        q = make_random_pattern(seed + 7, num_nodes=4, extra_edges=2,
                                cyclic=seed % 2 == 0)
        assert_equals_reference(q, g)

    @pytest.mark.parametrize("seed", range(15))
    def test_tombstoned_nodes(self, seed):
        g = make_random_graph(seed, num_nodes=16, num_edges=30)
        g.remove_node(seed % 16)
        g.remove_node((seed + 5) % 16)
        q = make_random_pattern(seed + 3, num_nodes=3, extra_edges=1)
        assert_equals_reference(q, g)

    def test_wildcard_pattern(self):
        g = make_random_graph(11, num_nodes=14, num_edges=30)
        q = pattern_from_edges(["*", "A", "*"], [(0, 1), (1, 2)], output=0)
        assert_equals_reference(q, g)

    def test_predicate_pattern(self):
        g = make_random_graph(5, num_nodes=14, num_edges=30)
        for v in g.nodes():
            g.set_attrs(v, score=v % 4)
        q = Pattern()
        a = q.add_node("A", predicate=AttrCompare("score", ">=", 2), output=True)
        b = q.add_node("B")
        q.add_edge(a, b)
        assert_equals_reference(q, g)

    def test_self_loop_pattern_edge(self):
        g = Graph()
        for label in "AAB":
            g.add_node(label)
        g.add_edges([(0, 0), (0, 1), (1, 2), (2, 1)])
        q = Pattern()
        a = q.add_node("A", output=True)
        q.add_edge(a, a)
        assert_equals_reference(q, g)

    def test_empty_candidate_sets(self):
        g = make_random_graph(3, num_nodes=8, num_edges=12, labels="AB")
        q = pattern_from_edges(["Z", "A"], [(0, 1)], output=0)
        assert_equals_reference(q, g)

    def test_pattern_without_edges(self):
        g = make_random_graph(9, num_nodes=8, num_edges=10)
        q = pattern_from_edges(["A", "B"], [], output=0)
        assert_equals_reference(q, g)


class TestCascadeTiers:
    """Force each cascade tier and check the fixpoint is unchanged."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "batch_cutoff, sweep_fraction",
        [(0, 1e9), (10**9, 1e9), (10**9, 0.0)],
        ids=["all-batched", "all-scalar", "all-sweep"],
    )
    def test_tiers_agree(self, monkeypatch, seed, batch_cutoff, sweep_fraction):
        monkeypatch.setattr(csr_kernel, "BATCH_CUTOFF", batch_cutoff)
        monkeypatch.setattr(csr_kernel, "SWEEP_FRACTION", sweep_fraction)
        g = make_random_graph(seed, num_nodes=20, num_edges=46)
        q = make_random_pattern(seed + 13, num_nodes=4, extra_edges=2,
                                cyclic=seed % 2 == 0)
        assert_equals_reference(q, g)

    def test_sweep_tier_runs_even_with_tiny_sweep_cutoff(self, monkeypatch):
        # sweep_cutoff floors at 256, so use a heavy enough instance.
        monkeypatch.setattr(csr_kernel, "SWEEP_FRACTION", 0.0)
        g = make_random_graph(42, num_nodes=60, num_edges=300, labels="AB")
        q = make_random_pattern(17, num_nodes=4, extra_edges=2, cyclic=True)
        assert_equals_reference(q, g)


class TestSharedCandidates:
    def test_kernel_accepts_precomputed_candidates(self):
        g = make_random_graph(2, num_nodes=12, num_edges=24)
        q = make_random_pattern(8, num_nodes=3, extra_edges=1)
        candidates = compute_candidates(q, g)
        result = maximal_simulation(q, g, candidates)
        assert result.candidates is candidates
        assert result.sim == reference.naive_simulation(q, g)

    def test_candidate_paths_agree(self):
        g = make_random_graph(21, num_nodes=15, num_edges=30)
        g.remove_node(4)
        q = pattern_from_edges(["*", "A", "B"], [(0, 1), (1, 2)], output=0)
        candidates = compute_candidates(q, g)
        expected = [reference.candidates(q, g, u) for u in q.nodes()]
        assert candidates.lists == [sorted(can) for can in expected]
        assert candidates.sets == expected
