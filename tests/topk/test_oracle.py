"""Oracle tests: every top-k engine variant meets Proposition 3.

Instances match by construction (``tests.reference.planted_instance``),
so no case is vacuous.  On each, every variant must return
``min(k, |Mu|)`` matches whose reference relevance sums to the optimum,
and report each match's exact reference relevance as its score.  The
reference has no fast paths: naive simulation, BFS relevant sets,
sorting.
"""

import copy

import pytest

from repro import api
from repro.ranking.generalized import PreferentialAttachment
from repro.ranking.relevance import CardinalityRelevance
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag

from tests import reference

SEEDS = range(25)
KS = ["1", "3", "all"]
FUNCTIONS = [CardinalityRelevance, PreferentialAttachment]


def reference_values(pattern, graph, node, fn):
    """Reference relevance of every match of ``node`` under ``fn``."""
    sim = reference.simulation(pattern, graph)
    assert sim is not None, "planted instances always match"
    weight = 1
    if fn is PreferentialAttachment:
        weight = len(reference.reachable_query_nodes(pattern, node))
    return {
        v: float(weight * len(reference.relevant_set(pattern, graph, sim, node, v)))
        for v in sim[node]
    }


def resolve_k(kind, values):
    return len(values) + 1 if kind == "all" else int(kind)


def check(result, values, k):
    assert len(result.matches) == min(k, len(values))
    assert len(set(result.matches)) == len(result.matches)
    assert sum(values[v] for v in result.matches) == reference.optimum(values, k)
    assert result.scores == {v: values[v] for v in result.matches}


def check_multi(pattern, graph, kind, fn):
    multi = copy.deepcopy(pattern)
    multi.set_output(0, pattern.num_nodes - 1)
    expected = {node: reference_values(pattern, graph, node, fn) for node in multi.output_nodes}
    k = resolve_k(kind, expected[0])
    results = api.top_k_matches_multi(multi, graph, k, relevance_fn=fn())
    assert set(results) == set(multi.output_nodes)
    for node, result in results.items():
        check(result, expected[node], k)


@pytest.mark.parametrize("fn", FUNCTIONS, ids=lambda fn: fn.name)
@pytest.mark.parametrize("kind", KS)
@pytest.mark.parametrize("seed", SEEDS)
class TestCyclicPatterns:
    def test_top_k(self, seed, kind, fn):
        graph, pattern = reference.planted_instance(seed, cyclic=True)
        values = reference_values(pattern, graph, 0, fn)
        k = resolve_k(kind, values)
        check(top_k(pattern, graph, k, relevance_fn=fn()), values, k)
        check(top_k(pattern, graph, k, relevance_fn=fn(), optimized=False, seed=seed), values, k)

    def test_multi_output(self, seed, kind, fn):
        graph, pattern = reference.planted_instance(seed, cyclic=True)
        check_multi(pattern, graph, kind, fn)


@pytest.mark.parametrize("fn", FUNCTIONS, ids=lambda fn: fn.name)
@pytest.mark.parametrize("kind", KS)
@pytest.mark.parametrize("seed", SEEDS)
class TestDagPatterns:
    def test_top_k_dag(self, seed, kind, fn):
        graph, pattern = reference.planted_instance(seed + 1000, cyclic=False)
        assert pattern.is_dag()
        values = reference_values(pattern, graph, 0, fn)
        k = resolve_k(kind, values)
        check(top_k_dag(pattern, graph, k, relevance_fn=fn()), values, k)
        check(
            top_k_dag(pattern, graph, k, relevance_fn=fn(), optimized=False, seed=seed),
            values, k,
        )
        check(top_k(pattern, graph, k, relevance_fn=fn()), values, k)

    def test_multi_output(self, seed, kind, fn):
        graph, pattern = reference.planted_instance(seed + 1000, cyclic=False)
        check_multi(pattern, graph, kind, fn)


def test_cyclic_instances_exercise_pattern_cycles():
    cyclic = [not reference.planted_instance(seed, cyclic=True)[1].is_dag() for seed in SEEDS]
    assert all(cyclic)
