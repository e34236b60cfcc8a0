"""Tests for the simulation fixpoint."""

import pytest

from repro.graph.digraph import Graph
from repro.patterns.pattern import pattern_from_edges
from repro.simulation.match import maximal_simulation

from tests.conftest import make_random_graph, make_random_pattern
from tests.reference import naive_simulation


def chain_graph():
    g = Graph()
    g.add_nodes(["A", "B", "C", "B"])
    g.add_edges([(0, 1), (1, 2), (0, 3)])  # A -> B -> C and A -> B(dead end)
    return g


class TestBasics:
    def test_forward_constraint_prunes(self):
        q = pattern_from_edges(["A", "B", "C"], [(0, 1), (1, 2)], 0)
        result = maximal_simulation(q, chain_graph())
        assert result.sim[1] == {1}  # node 3 has no C child
        assert result.total

    def test_total_false_empties_matches(self):
        g = Graph()
        g.add_nodes(["A", "B"])  # no edge: B never matched under A->B? B matches trivially
        q = pattern_from_edges(["A", "B"], [(0, 1)], 0)
        result = maximal_simulation(q, g)
        # A has no B child -> sim(A) empty -> not total -> M = empty
        assert not result.total
        assert result.matches_of(0) == set()
        assert result.relation_size == 0

    def test_greatest_fixpoint_kept_for_diagnostics(self):
        g = Graph()
        g.add_nodes(["A", "B"])
        q = pattern_from_edges(["A", "B"], [(0, 1)], 0)
        result = maximal_simulation(q, g)
        assert result.sim[1] == {1}  # B still simulates B even though M is empty

    def test_pairs_iteration(self, fig1):
        result = maximal_simulation(fig1.pattern, fig1.graph)
        pairs = list(result.pairs())
        assert len(pairs) == 15
        assert all(v in result.sim[u] for u, v in pairs)

    def test_contains(self, fig1):
        result = maximal_simulation(fig1.pattern, fig1.graph)
        assert (0, fig1.node("PM1")) in result
        assert (0, fig1.node("ST1")) not in result

    def test_self_loop_pattern(self):
        g = Graph()
        g.add_nodes(["A", "A"])
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        q = pattern_from_edges(["A"], [], 0)
        q.add_edge(0, 0)
        result = maximal_simulation(q, g)
        assert result.sim[0] == {0, 1}

    def test_self_loop_pattern_requires_cycle(self):
        g = Graph()
        g.add_nodes(["A", "A"])
        g.add_edge(0, 1)  # no cycle
        q = pattern_from_edges(["A"], [], 0)
        q.add_edge(0, 0)
        result = maximal_simulation(q, g)
        assert not result.total


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_instances(self, seed):
        g = make_random_graph(seed)
        q = make_random_pattern(seed + 100, num_nodes=4, extra_edges=2, cyclic=seed % 2 == 0)
        fast = maximal_simulation(q, g)
        slow = naive_simulation(q, g)
        assert fast.sim == slow
