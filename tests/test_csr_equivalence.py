"""Property suite: the CSR fast path equals the dict reference path.

Three public entry points are pinned (the ISSUE's acceptance bar):
``maximal_simulation``, ``top_k_matches`` and ``diversified_matches``
must return identical results on randomized graphs and patterns —
including tombstoned nodes, predicate patterns and wildcard labels —
with ``optimized=True`` versus the reference path.

Comparison discipline:

* relations (``maximal_simulation``) are compared exactly;
* engine runs differing *only* in ``use_csr`` are deterministic twins —
  identical matches, scores and objective values;
* runs also differing in seed-selection strategy (``optimized=False``
  switches to random selection) are compared on the Proposition-3
  contract instead: same answer size and the same total true relevance.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.graph.digraph import Graph
from repro.incremental.manager import MatchViewManager
from repro.patterns.pattern import Pattern
from repro.patterns.predicates import AttrCompare
from repro.ranking.context import RankingContext
from repro.simulation.candidates import WILDCARD_LABEL
from repro.simulation.match import maximal_simulation

from tests.conftest import make_random_graph
from tests.incremental.test_property_equivalence import random_op


SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LABELS = "ABC"


def rich_random_graph(seed: int, num_nodes: int = 16, num_edges: int = 34) -> Graph:
    """A random labelled graph with attributes and tombstones."""
    rng = random.Random(seed * 977 + 13)
    g = make_random_graph(seed, num_nodes=num_nodes, num_edges=num_edges, labels=LABELS)
    for v in g.nodes():
        if rng.random() < 0.7:
            g.set_attrs(v, score=rng.randrange(5))
    for _ in range(rng.randrange(3)):
        live = [v for v in g.nodes() if g.is_live(v)]
        if len(live) <= 4:
            break
        g.remove_node(rng.choice(live))
    return g


def rich_random_pattern(seed: int, cyclic: bool) -> Pattern:
    """A random pattern mixing plain labels, wildcards and predicates."""
    rng = random.Random(seed * 131 + 7)
    num_nodes = rng.randrange(3, 5)
    p = Pattern()
    for i in range(num_nodes):
        roll = rng.random()
        if roll < 0.2:
            p.add_node(WILDCARD_LABEL)
        elif roll < 0.35:
            p.add_node(
                rng.choice(LABELS),
                predicate=AttrCompare("score", ">=", rng.randrange(3)),
            )
        else:
            p.add_node(rng.choice(LABELS))
    for child in range(1, num_nodes):
        p.add_edge(rng.randrange(child), child)
    for _ in range(2):
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a == b or p.has_edge(a, b):
            continue
        if not cyclic and b == 0:
            continue
        p.add_edge(a, b)
    p.set_output(0)
    return p


def true_relevance_sum(pattern, graph, matches) -> int:
    ctx = RankingContext(pattern, graph)
    return sum(len(ctx.relevant[v]) for v in matches)


class TestSimulationEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_fixpoint_paths_identical(self, seed):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 1, cyclic=seed % 2 == 0)
        fast = maximal_simulation(q, g, optimized=True)
        reference = maximal_simulation(q, g, optimized=False)
        assert fast.sim == reference.sim
        assert fast.total == reference.total

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_api_find_matches(self, seed):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 2, cyclic=True)
        assert (
            api.find_matches(q, g, optimized=True).sim
            == api.find_matches(q, g, optimized=False).sim
        )


class TestTopKEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(1, 4))
    @SETTINGS
    def test_csr_toggle_is_a_deterministic_twin(self, seed, k):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 3, cyclic=seed % 2 == 1)
        fast = api.top_k_matches(q, g, k)
        reference = api.top_k_matches(q, g, k, use_csr=False)
        assert fast.matches == reference.matches
        assert fast.scores == reference.scores

    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(1, 4))
    @SETTINGS
    def test_reference_algorithm_same_answer_quality(self, seed, k):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 3, cyclic=seed % 2 == 1)
        fast = api.top_k_matches(q, g, k)
        reference = api.top_k_matches(q, g, k, optimized=False)
        assert len(fast.matches) == len(reference.matches)
        assert true_relevance_sum(q, g, fast.matches) == true_relevance_sum(
            q, g, reference.matches
        )


class TestDiversifiedEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_heuristic_csr_toggle_is_a_deterministic_twin(self, seed):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 4, cyclic=seed % 2 == 0)
        fast = api.diversified_matches(q, g, 3, lam=0.5)
        reference = api.diversified_matches(q, g, 3, lam=0.5, use_csr=False)
        assert fast.matches == reference.matches
        assert fast.scores == reference.scores
        assert fast.objective_value == reference.objective_value

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_approx_paths_identical(self, seed):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 5, cyclic=seed % 2 == 1)
        fast = api.diversified_matches(q, g, 3, method="approx", optimized=True)
        reference = api.diversified_matches(q, g, 3, method="approx", optimized=False)
        assert fast.matches == reference.matches
        assert fast.scores == reference.scores
        assert fast.objective_value == reference.objective_value


class TestUpdateStreamEquivalence:
    """Wildcard views under a delta stream: CSR and reference rebuilds agree.

    Also the regression test for wildcard-pattern event starvation: a
    wildcard view that misses deltas goes stale against the fresh
    fixpoint oracle immediately.
    """

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("threshold", [None, 0])
    def test_wildcard_view_follows_stream(self, seed, threshold):
        rng = random.Random(seed)
        graph = rich_random_graph(seed, num_nodes=12, num_edges=24)
        pattern = rich_random_pattern(seed + 6, cyclic=seed % 2 == 0)
        if all(pattern.label(u) != WILDCARD_LABEL for u in pattern.nodes()):
            # Force at least one wildcard node into the mix.
            extra = pattern.add_node(WILDCARD_LABEL)
            pattern.add_edge(0, extra)
        manager = MatchViewManager(graph)
        view = manager.register(pattern, k=3, recompute_threshold=threshold)
        mirror = manager.register(
            pattern, k=3, recompute_threshold=threshold, optimized=False,
            name="reference",
        )
        for _ in range(10):
            if not random_op(rng, graph):
                continue
            oracle = maximal_simulation(pattern, graph)
            assert view.simulation().sim == oracle.sim
            assert mirror.simulation().sim == oracle.sim
            assert view.matches() == mirror.matches()
        manager.close()
