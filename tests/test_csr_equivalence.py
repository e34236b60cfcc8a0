"""Rich random instances: the CSR path against the reference.

The planted instances of ``tests/topk/test_oracle.py`` carry plain
labels only.  Here the graphs carry attributes and tombstoned nodes,
and the patterns mix plain labels, wildcards and attribute predicates.
On each, ``maximal_simulation``, ``top_k_matches`` (both visiting
orders), ``diversified_matches`` (both methods) and a wildcard
``MatchView`` under a delta stream are checked against the reference
(``tests/reference.py``): naive simulation, BFS relevant sets and
enumerated optima.  Instances that do not match must yield empty
answers.

The ``api`` entry points serve through an implicit ``MatchSession``
and its artifact cache; the engine wrappers build every artifact
themselves.  Both routes run the one CSR path, so they are
deterministic twins: identical matches, scores and objective values.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.diversify.approx import top_k_diversified_approx
from repro.diversify.heuristic import top_k_diversified_heuristic
from repro.incremental.manager import MatchViewManager
from repro.simulation.candidates import WILDCARD_LABEL
from repro.simulation.match import maximal_simulation
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag

from tests import reference
from tests.conftest import rich_random_graph, rich_random_pattern
from tests.incremental.test_property_equivalence import random_op


SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_sets(pattern, graph):
    """Reference ``R(uo, v)`` per match, or ``None`` when G does not match Q."""
    sim = reference.simulation(pattern, graph)
    if sim is None:
        return None
    uo = pattern.output_node
    return {v: reference.relevant_set(pattern, graph, sim, uo, v) for v in sim[uo]}


def check_top_k(result, rsets, k):
    """Prop. 3: ``min(k, |Mu|)`` matches of optimal reference relevance."""
    if rsets is None:
        assert result.matches == []
        return
    values = {v: float(len(r)) for v, r in rsets.items()}
    assert len(result.matches) == len(set(result.matches)) == min(k, len(values))
    assert sum(values[v] for v in result.matches) == reference.optimum(values, k)
    assert result.scores == {v: values[v] for v in result.matches}
    assert result.stats.inspected_matches <= len(values)


def check_diversified(result, pattern, graph, rsets, k, lam, normalised):
    """Valid members whose reported ``F`` is the reference ``F``.

    Scores are ``δr`` or, when ``normalised``, ``δ'r = δr / C_uo``.
    """
    if rsets is None:
        assert result.matches == []
        return None
    members = tuple(result.matches)
    assert len(members) == len(set(members)) == min(k, len(rsets))
    assert set(members) <= set(rsets)
    c = reference.normalisation(pattern, graph, pattern.output_node)
    scale = c if normalised else 1
    assert result.scores == pytest.approx({v: len(rsets[v]) / scale for v in members})
    value = reference.objective(rsets, members, k, lam, c)
    assert result.objective_value == pytest.approx(value, abs=1e-12)
    return reference.diversified_optimum(rsets, k, lam, c), value


def assert_twins(session_route, engine_route):
    assert session_route.matches == engine_route.matches
    assert session_route.scores == engine_route.scores
    assert session_route.objective_value == engine_route.objective_value


class TestSimulationEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_fixpoint_paths_identical(self, seed):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 1, cyclic=seed % 2 == 0)
        result = maximal_simulation(q, g)
        expected = reference.naive_simulation(q, g)
        assert result.sim == expected
        assert result.total == all(expected)
        assert [set(lst) for lst in result.candidates.lists] == [
            reference.candidates(q, g, u) for u in q.nodes()
        ]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_api_find_matches(self, seed):
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 2, cyclic=True)
        assert api.find_matches(q, g).sim == reference.naive_simulation(q, g)


class TestTopKEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(1, 4))
    @SETTINGS
    def test_csr_toggle_is_a_deterministic_twin(self, seed, k):
        """Session route and engine wrapper agree, and both are optimal."""
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 3, cyclic=seed % 2 == 1)
        result = api.top_k_matches(q, g, k)
        check_top_k(result, reference_sets(q, g), k)
        runner = top_k_dag if q.is_dag() else top_k
        assert_twins(result, runner(q, g, k))

    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(1, 4))
    @SETTINGS
    def test_reference_algorithm_same_answer_quality(self, seed, k):
        """TopKnopt's random visiting order reaches the same optimum."""
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 3, cyclic=seed % 2 == 1)
        result = api.top_k_matches(q, g, k, optimized=False, seed=seed)
        check_top_k(result, reference_sets(q, g), k)


class TestDiversifiedEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_heuristic_csr_toggle_is_a_deterministic_twin(self, seed):
        """Session route and engine wrapper agree on reference values."""
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 4, cyclic=seed % 2 == 0)
        result = api.diversified_matches(q, g, 3, lam=0.5)
        check_diversified(result, q, g, reference_sets(q, g), 3, 0.5, normalised=False)
        assert_twins(result, top_k_diversified_heuristic(q, g, 3, lam=0.5))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_approx_paths_identical(self, seed):
        """Both routes of TopKDiv agree and reach half the optimum."""
        g = rich_random_graph(seed)
        q = rich_random_pattern(seed + 5, cyclic=seed % 2 == 1)
        result = api.diversified_matches(q, g, 3, method="approx")
        checked = check_diversified(
            result, q, g, reference_sets(q, g), 3, 0.5, normalised=True
        )
        if checked is not None:
            best, value = checked
            assert value >= best / 2 - 1e-12
        assert_twins(result, top_k_diversified_approx(q, g, 3, lam=0.5))


class TestUpdateStreamEquivalence:
    """A wildcard view under a delta stream stays equal to the reference.

    Also the regression test for wildcard-pattern event starvation: a
    wildcard view that misses deltas goes stale against the reference
    immediately.
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
        for _ in range(10):
            if not random_op(rng, graph):
                continue
            assert view.simulation().sim == reference.naive_simulation(pattern, graph)
            check_top_k(view.top_k(), reference_sets(pattern, graph), 3)
        manager.close()
