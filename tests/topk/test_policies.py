"""Tests for selection policies."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ranking.distance import JaccardDistance
from repro.ranking.diversification import DiversificationObjective
from repro.ranking.generalized import NeighbourhoodDiversity, PreferentialAttachment
from repro.ranking.relevance import NormalisedRelevance
from repro.topk.engine import TopKEngine
from repro.topk.policies import DiversifiedPolicy, RelevancePolicy


class TestRelevancePolicy:
    def test_selection_orders_by_exact_value(self, fig1):
        engine = TopKEngine(fig1.pattern, fig1.graph, 2, policy=RelevancePolicy())
        engine.run()
        chosen = engine.policy.selection(2)
        values = [engine.value(pid) for _, pid in chosen]
        assert values == sorted(values, reverse=True)

    def test_selection_capped_at_k(self, fig1):
        engine = TopKEngine(fig1.pattern, fig1.graph, 2, policy=RelevancePolicy())
        engine.run()
        assert len(engine.policy.selection(2)) == 2
        assert len(engine.policy.selection(1)) == 1

    def test_heap_keeps_k_best_ties_to_smaller_id(self):
        policy = RelevancePolicy()
        policy.bind(SimpleNamespace(k=2))
        for v, value in [(7, 3.0), (5, 3.0), (9, 1.0), (4, 3.0), (8, 5.0)]:
            policy.on_visit(v, v, value)
        assert policy.selection(2) == [(8, 8), (4, 4)]

    def test_can_stop_needs_a_full_heap_dominating_the_bound(self):
        policy = RelevancePolicy()
        policy.bind(SimpleNamespace(k=2))
        policy.on_visit(1, 1, 4.0)
        assert not policy.can_stop(2, 0.0)  # heap not full
        policy.on_visit(2, 2, 3.0)
        assert policy.can_stop(2, 3.0)  # k-th value equals the bound
        assert not policy.can_stop(2, 3.5)

    def test_objective_value_is_none(self, fig1):
        engine = TopKEngine(fig1.pattern, fig1.graph, 2, policy=RelevancePolicy())
        engine.run()
        assert engine.policy.objective_value(2) is None


class TestDiversifiedPolicy:
    def test_integrates_greedy_swaps(self, fig1):
        policy = DiversifiedPolicy(DiversificationObjective(lam=0.9, k=2))
        engine = TopKEngine(fig1.pattern, fig1.graph, 2, policy=policy)
        engine.run()
        chosen = {v for v, _ in policy.selection(2)}
        assert len(chosen) == 2

    def test_objective_value_positive(self, fig1):
        policy = DiversifiedPolicy(DiversificationObjective(lam=0.5, k=2))
        engine = TopKEngine(fig1.pattern, fig1.graph, 2, policy=policy)
        engine.run()
        assert policy.objective_value(2) > 0

    def test_can_stop_tests_every_period(self):
        # |Mu| = 128, so Proposition 3 is tested every ceil(128/64) = 2
        # visits; pid p has relevance p.
        engine = StubEngine({pid: frozenset(range(pid)) for pid in range(128)}, 200)
        policy = DiversifiedPolicy(DiversificationObjective(lam=0.0, k=1))
        policy.bind(engine)
        policy.on_visit(227, 127, 127.0)
        assert not policy.can_stop(1, 0.0)  # off period
        policy.on_visit(100, 0, 0.0)
        assert policy.can_stop(1, 126.0)  # S = {127} beats pid 0 and the bound
        policy.on_visit(101, 1, 1.0)
        assert not policy.can_stop(1, 0.0)  # off period
        policy.on_visit(102, 2, 2.0)
        assert not policy.can_stop(1, 128.0)  # an unvisited match may beat S

    def test_no_matches_no_objective(self):
        from repro.graph.digraph import Graph
        from repro.patterns.pattern import pattern_from_edges

        g = Graph()
        g.add_nodes(["A", "B"])
        q = pattern_from_edges(["A", "B"], [(0, 1)], 0)
        policy = DiversifiedPolicy(DiversificationObjective(lam=0.5, k=2))
        engine = TopKEngine(q, g, 2, policy=policy)
        engine.run()
        assert policy.objective_value(2) is None


# ----------------------------------------------------------------------
# The swap step against a direct transcription, through a stub engine
# ----------------------------------------------------------------------


class ReferenceDiversifiedPolicy(DiversifiedPolicy):
    """The swap step written directly: every trial swap re-scores all of S."""

    def _integrate(self, k):
        while self._fresh:
            candidate = self._fresh.pop()
            if candidate in self._selected:
                continue
            if len(self._selected) < k:
                self._selected.append(candidate)
                continue
            base = self._score(self._selected)
            best_gain = 0.0
            best_index = None
            for index in range(len(self._selected)):
                trial = list(self._selected)
                trial[index] = candidate
                gain = self._score(trial) - base
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_index = index
            if best_index is not None:
                self._selected[best_index] = candidate


class StubEngine:
    """The engine accessors a diversified policy reads, over given rsets.

    ``rsets`` maps a pid to its relevant set; tests may replace entries
    between calls to exercise the kept distances against fresh reads.
    """

    def __init__(self, rsets, universe):
        self.rsets = rsets
        self.num_matches = len(rsets)
        self.context = SimpleNamespace(
            normalisation=universe,
            reachable_query_nodes=frozenset(range(3)),
            graph=SimpleNamespace(num_nodes=universe),
        )

    def relevant_set(self, pid):
        return self.rsets[pid]

    def value(self, pid):
        return float(len(self.rsets[pid]))


class CountingDistance(JaccardDistance):
    def __init__(self):
        self.calls = 0

    def distance(self, ctx, v1, rset1, v2, rset2):
        self.calls += 1
        return super().distance(ctx, v1, rset1, v2, rset2)


FUNCTIONS = [
    (NormalisedRelevance, JaccardDistance),
    (NormalisedRelevance, NeighbourhoodDiversity),
    (PreferentialAttachment, JaccardDistance),
    (PreferentialAttachment, NeighbourhoodDiversity),
]


@st.composite
def swap_scenarios(draw):
    """Rset families over a tiny universe (so duplicate and empty sets,
    hence tied gains, are common), confirmed and grown over rounds."""
    universe = draw(st.integers(1, 6))
    subsets = st.frozensets(st.integers(0, universe - 1))
    n = draw(st.integers(1, 16))
    rsets = {pid: draw(subsets) for pid in range(n)}
    order = draw(st.permutations(range(n)))
    rounds = draw(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.lists(st.tuples(st.integers(0, n - 1), subsets), max_size=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    k = draw(st.integers(1, 12))
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    functions = draw(st.sampled_from(FUNCTIONS))
    return universe, rsets, order, rounds, k, lam, functions


def assert_policies_agree(engine, order, rounds, k, lam, functions):
    """Drive the policy and the reference through the same rounds; each
    round visits matches, grows rsets, then asks for the selection."""
    relevance, distance = functions
    policies = []
    for cls in (DiversifiedPolicy, ReferenceDiversifiedPolicy):
        policy = cls(
            DiversificationObjective(lam=lam, k=k, relevance=relevance(), distance=distance())
        )
        policy.bind(engine)
        policies.append(policy)
    fast, reference = policies
    confirmed = 0
    for count, growth in rounds:
        for pid in order[confirmed : confirmed + count]:
            for policy in policies:
                policy.on_visit(100 + pid, pid, 0.0)
        confirmed += count
        for pid, extra in growth:
            engine.rsets[pid] = engine.rsets[pid] | extra
        assert fast.selection(k) == reference.selection(k)
        assert fast.objective_value(k) == reference.objective_value(k)
    assert fast.final_selection(k) == reference.final_selection(k)
    assert fast.objective_value(k) == reference.objective_value(k)


class TestDiversifiedPolicyEquivalence:
    @given(swap_scenarios())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_selection_matches_reference(self, scenario):
        universe, rsets, order, rounds, k, lam, functions = scenario
        assert_policies_agree(StubEngine(dict(rsets), universe), order, rounds, k, lam, functions)

    @pytest.mark.parametrize("functions", FUNCTIONS, ids=lambda f: f"{f[0].name}-{f[1].name}")
    @pytest.mark.parametrize("lam", [0.3, 0.8])
    def test_many_swaps_per_call_match_reference(self, functions, lam):
        # Wider sets than the generated scenarios: many swaps land in one
        # call, so the kept distances and row sums are reused after swaps.
        rng = random.Random(5)
        n = 60
        rsets = {pid: frozenset(rng.sample(range(25), rng.randint(0, 12))) for pid in range(n)}
        rounds = [
            (10, [(rng.randrange(n), frozenset(rng.sample(range(25), 3))) for _ in range(5)])
            for _ in range(6)
        ]
        engine = StubEngine(rsets, 25)
        assert_policies_agree(engine, list(range(n)), rounds, 7, lam, functions)


class TestDiversifiedPolicyCost:
    def test_fresh_matches_cost_k_distance_evaluations_each(self):
        k, m = 10, 30
        rng = random.Random(7)
        rsets = {
            pid: frozenset(rng.sample(range(40), rng.randint(0, 12))) for pid in range(k + m)
        }
        counts = []
        for cls in (DiversifiedPolicy, ReferenceDiversifiedPolicy):
            distance = CountingDistance()
            policy = cls(DiversificationObjective(lam=0.5, k=k, distance=distance))
            policy.bind(StubEngine(rsets, 40))
            for pid in range(k):
                policy.on_visit(100 + pid, pid, 0.0)
            policy.selection(k)
            assert distance.calls == 0  # filling S scores nothing
            for pid in range(k, k + m):
                policy.on_visit(100 + pid, pid, 0.0)
            policy.selection(k)
            counts.append(distance.calls)
        fast, reference = counts
        # One scoring of S per call, k per fresh match, k per accepted
        # swap (at most one per fresh match).
        assert fast <= k * (k - 1) // 2 + k * m + k * m
        assert reference == m * (k + 1) * k * (k - 1) // 2

    def test_final_replay_costs_k_per_inspected_match(self):
        k, n = 6, 50
        rng = random.Random(11)
        rsets = {pid: frozenset(rng.sample(range(30), rng.randint(0, 10))) for pid in range(n)}
        distance = CountingDistance()
        policy = DiversifiedPolicy(DiversificationObjective(lam=0.7, k=k, distance=distance))
        policy.bind(StubEngine(rsets, 30))
        for pid in range(n):
            policy.on_visit(100 + pid, pid, 0.0)
        policy.final_selection(k)
        assert distance.calls <= k * (k - 1) // 2 + 2 * k * (n - k)
