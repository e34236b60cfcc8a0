"""Oracle tests: every reader of the evaluation meets the definitions.

Instances match by construction (``tests.reference.planted_instance``),
so no case is vacuous.  On each, every top-k variant and ``Match`` must
return ``min(k, |Mu|)`` matches whose reference relevance sums to the
optimum (Proposition 3), and report each match's exact reference
relevance as its score, visiting no more than ``|Mu|`` matches;
``relevant_sets`` must equal the reference sets, whichever adjacency
the evaluation gathers from; ``TopKDiv`` must reach half the
diversified optimum (Theorem 5).  The reference has no fast paths:
naive simulation, BFS relevant sets, sorting, enumeration.
"""

import copy
import random

import pytest

from repro import api
from repro.diversify.approx import top_k_diversified_approx
from repro.graph import csr
from repro.graph.digraph import Graph
from repro.incremental.manager import MatchViewManager
from repro.patterns.pattern import pattern_from_edges
from repro.ranking.generalized import PreferentialAttachment
from repro.ranking.relevance import CardinalityRelevance
from repro.session import MatchSession
from repro.simulation.match import maximal_simulation
from repro.simulation.relevant import Evaluation, build_evaluation, relevant_sets
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag
from repro.topk.match_all import match_baseline

from tests import reference

SEEDS = range(25)
KS = ["1", "3", "all"]
FUNCTIONS = [CardinalityRelevance, PreferentialAttachment]
#: The 50 planted instances: ``(seed, cyclic)``.
INSTANCES = [(seed, True) for seed in SEEDS] + [(seed + 1000, False) for seed in SEEDS]


def reference_sets(pattern, graph, node=0):
    """Reference ``R(node, v)`` of every match ``v`` of ``node``."""
    sim = reference.simulation(pattern, graph)
    assert sim is not None, "planted instances always match"
    return {v: reference.relevant_set(pattern, graph, sim, node, v) for v in sim[node]}


def reference_values(pattern, graph, node, fn):
    """Reference relevance of every match of ``node`` under ``fn``."""
    weight = 1
    if fn is PreferentialAttachment:
        weight = len(reference.reachable_query_nodes(pattern, node))
    return {v: float(weight * len(r)) for v, r in reference_sets(pattern, graph, node).items()}


def resolve_k(kind, values):
    return len(values) + 1 if kind == "all" else int(kind)


def check(result, values, k):
    assert len(result.matches) == min(k, len(values))
    assert len(set(result.matches)) == len(result.matches)
    assert sum(values[v] for v in result.matches) == reference.optimum(values, k)
    assert result.scores == {v: values[v] for v in result.matches}
    assert result.stats.inspected_matches <= len(values)


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


def instance_id(instance):
    seed, cyclic = instance
    return f"{'cyclic' if cyclic else 'dag'}-{seed}"


def self_loop_instance():
    """A pattern self-loop meets graph self-loops: one-pair cyclic components."""
    pattern = pattern_from_edges(["A", "B"], [(0, 1), (1, 1)], output=0)
    graph = Graph()
    a0, b0, a1, b1, b2, a2, b3 = (graph.add_node(label) for label in "ABABBAB")
    graph.add_edges([(a0, b0), (b0, b0), (a1, b1), (b1, b2), (b2, b1), (b2, b0), (a2, b3)])
    return graph, pattern


def outside_reach_instance():
    """``uo`` reaches a pattern cycle but not itself; some of its matches lie
    outside the interned universe of the query nodes it reaches."""
    pattern = pattern_from_edges(["A", "B", "A", "C"], [(0, 1), (1, 2), (2, 1), (2, 3)], output=0)
    graph = Graph()
    a1, b1, a2, c1, a3, a4 = (graph.add_node(label) for label in "ABACAA")
    graph.add_edges([(a1, b1), (b1, a2), (a2, b1), (a2, c1), (a3, b1), (a4, c1)])
    return graph, pattern


#: Every instance the evaluation is checked on, for every query node as uo.
EVALUATION_INSTANCES = [
    pytest.param(lambda seed=seed, cyclic=cyclic: reference.planted_instance(seed, cyclic),
                 id=instance_id((seed, cyclic)))
    for seed, cyclic in INSTANCES
] + [
    pytest.param(self_loop_instance, id="self-loops"),
    pytest.param(outside_reach_instance, id="outside-reach"),
]


def grow(graph, rng):
    """Writes that keep a matching instance matching: a simulation only
    grows with nodes and edges.  Adds a wired node and three edges, then
    removes the first of those edges again."""
    node = graph.add_node(graph.label(rng.randrange(graph.num_nodes)))
    graph.add_edge(node, rng.randrange(node))
    graph.add_edge(rng.randrange(node), node)
    added = []
    while len(added) < 3:
        a, b = rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes)
        if not graph.has_edge(a, b):
            graph.add_edge(a, b)
            added.append((a, b))
    graph.remove_edge(*added[0])


def prepare_adjacency(graph, state):
    """Leave ``graph`` with the snapshot state the evaluation reads.

    ``flat``: a compiled snapshot is cached.  ``patched``: writes made
    with snapshot patching attached leave a cached
    :class:`~repro.graph.csr.PatchedCSRSnapshot`.  ``live``: no snapshot
    was ever compiled, so the evaluation gathers from
    ``graph.successors``.
    """
    if state == "flat":
        graph.snapshot()
    elif state == "patched":
        csr.attach_snapshot_patching(graph, compact_ratio=1.0)
        graph.snapshot()
        grow(graph, random.Random(graph.num_edges))
        assert isinstance(graph.snapshot(), csr.PatchedCSRSnapshot)


def assert_evaluation_matches(evaluation, pattern, graph, sim, node):
    """Matches, bounds and relevant sets equal the reference's."""
    bounds = reference.upper_bounds(pattern, graph, sim, node)
    assert evaluation.matches == sorted(sim[node])
    assert evaluation.out_bound == [bounds[v] for v in evaluation.matches]
    got = {
        v: csr.FrozenBitset(evaluation.relevant(comp), evaluation.interner)
        for v, comp in zip(evaluation.matches, evaluation.out_comp)
    }
    assert got == reference_sets(pattern, graph, node)


@pytest.mark.parametrize("make", EVALUATION_INSTANCES)
def test_evaluation_equals_reference(make):
    """Matches, bounds and relevant sets, over each adjacency source."""
    for state in ("flat", "patched", "live"):
        graph, pattern = make()
        prepare_adjacency(graph, state)
        sim = reference.simulation(pattern, graph)
        assert sim is not None
        for node in pattern.nodes():
            evaluation = build_evaluation(pattern, graph, sim, node)
            assert csr.has_cached_snapshot(graph) == (state != "live")
            assert_evaluation_matches(evaluation, pattern, graph, sim, node)


@pytest.mark.parametrize("instance", INSTANCES[::5], ids=instance_id)
def test_evaluation_after_a_write_reads_live_adjacency(instance):
    """A write drops the snapshot; the evaluation of the relation a
    :class:`MatchView` repaired in place gathers from the live adjacency
    and compiles nothing."""
    graph, pattern = reference.planted_instance(*instance)
    manager = MatchViewManager(graph)
    view = manager.register(pattern)
    assert csr.has_cached_snapshot(graph)
    grow(graph, random.Random(instance[0]))
    assert not csr.has_cached_snapshot(graph)
    sim = view.simulation().sim
    assert sim == reference.simulation(pattern, graph)
    for node in pattern.nodes():
        evaluation = build_evaluation(pattern, graph, sim, node)
        assert not csr.has_cached_snapshot(graph)
        assert_evaluation_matches(evaluation, pattern, graph, sim, node)
    manager.close()


def test_special_instances_reach_their_cases():
    graph, pattern = self_loop_instance()
    sim = reference.simulation(pattern, graph)
    b0 = 1  # alone on its graph self-loop: (1, b0) reaches only itself
    assert reference.relevant_set(pattern, graph, sim, 1, b0) == {b0}
    graph, pattern = outside_reach_instance()
    sim = reference.simulation(pattern, graph)
    universe = set().union(*(sim[u] for u in reference.reachable_query_nodes(pattern, 0)))
    assert 0 not in reference.reachable_query_nodes(pattern, 0)
    assert sim[0] - universe and sim[0] & universe


@pytest.mark.parametrize("instance", INSTANCES, ids=instance_id)
class TestEvaluationReaders:
    def test_relevant_sets(self, instance):
        graph, pattern = reference.planted_instance(*instance)
        simulation = maximal_simulation(pattern, graph)
        for node in pattern.nodes():
            expected = reference_sets(pattern, graph, node)
            walked = Evaluation(pattern, graph, simulation.sim, node, None)
            assert relevant_sets(pattern, graph, simulation.sim, node) == expected
            assert relevant_sets(pattern, graph, simulation.sim, node, walked) == expected

    def test_match_baseline(self, instance):
        graph, pattern = reference.planted_instance(*instance)
        for fn in FUNCTIONS:
            values = reference_values(pattern, graph, 0, fn)
            for kind in KS:
                k = resolve_k(kind, values)
                check(match_baseline(pattern, graph, k, relevance_fn=fn()), values, k)
                with MatchSession(graph) as session:
                    check(session.baseline(pattern, k, relevance_fn=fn()), values, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_topkdiv_is_a_2_approximation(self, instance, k):
        graph, pattern = reference.planted_instance(*instance)
        rsets = reference_sets(pattern, graph)
        c = reference.normalisation(pattern, graph, 0)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            best = reference.diversified_optimum(rsets, k, lam, c)
            one_shot = top_k_diversified_approx(pattern, graph, k, lam=lam)
            with MatchSession(graph) as session:
                served = session.diversified(pattern, k, lam=lam, method="approx")
            assert served.matches == one_shot.matches
            members = tuple(one_shot.matches)
            assert len(members) == len(set(members)) == min(k, len(rsets))
            value = reference.objective(rsets, members, k, lam, c)
            assert one_shot.objective_value == pytest.approx(value, abs=1e-12)
            assert value >= best / 2 - 1e-12
