"""The incremental subsystem's correctness oracle.

Property: after ANY sequence of graph updates, the relation a
``MatchSession`` cache repairs must equal a from-scratch
``maximal_simulation`` on the mutated graph, and the session's ``Match``
answer must equal a re-rank of it.  Exercised over randomized delta
sequences on synthetic graphs through a refresh-mode session
(label-filtered repair), with
:func:`repro.session.cache.repair_threshold` patched to force the
pure-incremental and the always-recompute paths.

The acceptance bar of the subsystem is >= 200 randomized sequences; the
default run covers 240 (``NUM_SEQUENCES`` x the three pattern regimes),
with every op position checked, plus 40 hypothesis-driven mixes.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.ranking.context import RankingContext
from repro.ranking.relevance import top_k_by_relevance
from repro.session import MatchSession
from repro.simulation.match import maximal_simulation

from tests.conftest import make_random_graph, make_random_pattern

NUM_SEQUENCES = 80  # per pattern regime; 3 regimes => 240 sequences
OPS_PER_SEQUENCE = 10


def random_op(rng: random.Random, graph: Graph, labels: str = "ABC") -> bool:
    """Apply one random valid mutation to ``graph``; False when stuck."""
    roll = rng.random()
    if roll < 0.35:  # add_edge (self-loops included — they regress easily)
        live = [v for v in graph.nodes() if graph.is_live(v)]
        for _ in range(40):
            a, b = rng.choice(live), rng.choice(live)
            if graph.has_edge(a, b):
                continue
            if a == b and rng.random() >= 0.2:
                continue
            graph.add_edge(a, b)
            return True
        return False
    if roll < 0.70:  # remove_edge
        edges = list(graph.edges())
        if not edges:
            return False
        graph.remove_edge(*rng.choice(edges))
        return True
    if roll < 0.85:  # add_node (sometimes wired up immediately)
        node = graph.add_node(rng.choice(labels))
        live = [v for v in graph.nodes() if graph.is_live(v) and v != node]
        if live and rng.random() < 0.7:
            graph.add_edge(node, rng.choice(live))
        if live and rng.random() < 0.7:
            graph.add_edge(rng.choice(live), node)
        return True
    live = [v for v in graph.nodes() if graph.is_live(v)]  # remove_node
    if len(live) <= 2:
        return False
    graph.remove_node(rng.choice(live))
    return True


def check_sequence(seed: int, cyclic: bool, threshold: int | None) -> None:
    """One randomized sequence, oracle-checked after every op.

    ``threshold`` pins the repair's fallback threshold (``None``: the
    size-scaled default).
    """
    with pytest.MonkeyPatch.context() as patch:
        if threshold is not None:
            patch.setattr(
                "repro.session.cache.repair_threshold",
                lambda pattern, graph: threshold,
            )
        _check_sequence(seed, cyclic)


def repaired(session, pattern):
    """The session's cached relation; a miss would be a fresh build."""
    relation, hit = session.cache.simulation(pattern)
    assert hit
    return relation


def _check_sequence(seed: int, cyclic: bool) -> None:
    rng = random.Random(seed)
    graph = make_random_graph(seed, num_nodes=12, num_edges=24)
    pattern = make_random_pattern(
        seed + 1, num_nodes=3 + seed % 2, extra_edges=1, cyclic=cyclic
    )
    with MatchSession(graph, on_mutation="refresh") as session:
        session.cache.simulation(pattern)  # cached: every write repairs it
        for _ in range(OPS_PER_SEQUENCE):
            if not random_op(rng, graph):
                continue
            oracle = maximal_simulation(pattern, graph)
            relation = repaired(session, pattern)
            assert relation.sim == oracle.sim, (
                f"relation diverged (seed={seed}, cyclic={cyclic})"
            )
            assert relation.total == oracle.total
            # Re-rank equivalence: the session's Match answer equals
            # ranking the from-scratch relation (when the pattern
            # matches at all).
            if oracle.total:
                ctx = RankingContext(pattern, graph, simulation=oracle)
                assert session.baseline(pattern, 3).matches == top_k_by_relevance(ctx, 3)


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_incremental_equals_scratch_dag(seed):
    check_sequence(seed, cyclic=False, threshold=10**9)


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_incremental_equals_scratch_cyclic(seed):
    check_sequence(seed + 5_000, cyclic=True, threshold=10**9)


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_equivalence_with_default_threshold(seed):
    # The production configuration: delta maintenance with the scaled
    # fallback threshold (either path may run; both must agree).
    check_sequence(seed + 10_000, cyclic=seed % 2 == 0, threshold=None)


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_equivalence_when_always_recomputing(seed):
    # threshold=0 forces the fallback on every edge op — the trivially
    # correct path; divergence here would implicate the oracle itself.
    check_sequence(seed + 20_000, cyclic=True, threshold=0)


@pytest.mark.parametrize("seed", range(20))
def test_equivalence_with_attribute_deltas(seed):
    # Predicate patterns: attribute updates flip candidacy, which must
    # cascade exactly like edge updates do.
    from repro.patterns.pattern import Pattern
    from repro.patterns.predicates import AttrCompare

    rng = random.Random(seed)
    graph = make_random_graph(seed, num_nodes=12, num_edges=24)
    for v in graph.nodes():
        graph.set_attrs(v, w=rng.randint(0, 9))

    pattern = Pattern()
    a = pattern.add_node("A", output=True)
    b = pattern.add_node("B", predicate=AttrCompare("w", ">", 4))
    c = pattern.add_node("C")
    pattern.add_edge(a, b)
    pattern.add_edge(b, c)

    with MatchSession(graph, on_mutation="refresh") as session:
        session.cache.simulation(pattern)
        for _ in range(OPS_PER_SEQUENCE):
            if rng.random() < 0.5:
                live = [v for v in graph.nodes() if graph.is_live(v)]
                graph.set_attrs(rng.choice(live), w=rng.randint(0, 9))
            elif not random_op(rng, graph):
                continue
            oracle = maximal_simulation(pattern, graph)
            assert repaired(session, pattern).sim == oracle.sim


SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestHypothesisMixes:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_any_seed_any_mix(self, seed):
        check_sequence(seed + 30_000, cyclic=seed % 3 == 0, threshold=None)
