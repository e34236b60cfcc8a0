"""Property suite: ``MatchSession.run_batch`` ≡ looped one-shot ``api`` calls.

The session changes *where artifacts come from* (shared candidates,
simulations, top-k evaluations, ranking contexts), never
what is computed — so a mixed batch executed through one session must
return answers identical to the same queries issued one at a time
through the one-shot API, under both visiting orders:

* heterogeneous batches — DAG topKP, cyclic topKP, diversified
  (heuristic and 2-approximation), the find-all baseline, and
  multi-output fan-outs — over graphs with attributes and tombstones,
  patterns with wildcards and predicates;
* ``optimized`` on and off (the paper's TopK and TopKnopt), pinned
  per-query through ``QuerySpec.config``;
* batches interleaved with graph mutations: the session must detect
  the stale snapshot and refuse (``StaleSessionError``) or refresh
  explicitly — and after the refresh its answers must equal one-shot
  answers on the mutated graph.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import StaleSessionError
from repro.session import ExecutionConfig, MatchSession, QuerySpec

from tests.conftest import (
    make_random_graph,
    make_random_pattern,
    rich_random_graph,
    rich_random_pattern,
)

SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Both visiting orders: the paper's ``nopt`` random order and the
#: default bound order.
TOGGLE_GRID = [
    ExecutionConfig(optimized=False),
    ExecutionConfig(),
]


def mixed_batch(seed: int) -> list[QuerySpec]:
    """A deterministic heterogeneous batch with repeated patterns."""
    rng = random.Random(seed * 389 + 17)
    dag = make_random_pattern(seed, num_nodes=3, extra_edges=1, cyclic=False)
    cyc = make_random_pattern(seed + 50, num_nodes=3, extra_edges=2, cyclic=True)
    rich = rich_random_pattern(seed, cyclic=bool(seed % 2))
    multi = copy.deepcopy(dag)
    multi.set_output(0, dag.num_nodes - 1)
    specs = [
        QuerySpec(dag, k=rng.randrange(1, 4)),
        QuerySpec(cyc, k=rng.randrange(1, 4)),
        QuerySpec(dag, k=2, mode="diversified", lam=rng.choice([0.0, 0.5, 1.0])),
        QuerySpec(cyc, k=2, mode="diversified", method="approx", lam=0.5),
        QuerySpec(rich, k=3),
        QuerySpec(dag, k=3, mode="baseline"),
        QuerySpec(multi, k=2, mode="multi"),
    ]
    rng.shuffle(specs)
    return specs


def one_shot(spec: QuerySpec, graph, config: ExecutionConfig):
    if spec.mode == "topk":
        return api.top_k_matches(spec.pattern, graph, spec.k, config=config)
    if spec.mode == "baseline":
        return api.baseline_matches(spec.pattern, graph, spec.k, config=config)
    if spec.mode == "multi":
        return api.top_k_matches_multi(spec.pattern, graph, spec.k, config=config)
    return api.diversified_matches(
        spec.pattern, graph, spec.k, lam=spec.lam, method=spec.method,
        config=config,
    )


def assert_same(batch_result, loop_result) -> None:
    if isinstance(loop_result, dict):
        assert set(batch_result) == set(loop_result)
        for node in loop_result:
            assert_same(batch_result[node], loop_result[node])
        return
    assert batch_result.matches == loop_result.matches
    assert batch_result.scores == loop_result.scores
    assert batch_result.algorithm == loop_result.algorithm
    if loop_result.objective_value is None:
        assert batch_result.objective_value is None
    else:
        assert batch_result.objective_value == pytest.approx(
            loop_result.objective_value
        )


@given(seed=st.integers(0, 10_000))
@SETTINGS
def test_batch_equals_looped_one_shot_across_toggle_grid(seed):
    graph = rich_random_graph(seed)
    specs = mixed_batch(seed)
    for config in TOGGLE_GRID:
        pinned = [
            QuerySpec(
                pattern=s.pattern, k=s.k, mode=s.mode, lam=s.lam,
                method=s.method, config=config,
            )
            for s in specs
        ]
        with MatchSession(graph, config=config) as session:
            batch_results = session.run_batch(pinned)
        for spec, result in zip(specs, batch_results):
            assert_same(result, one_shot(spec, graph, config))


@given(seed=st.integers(0, 10_000))
@SETTINGS
def test_mutation_interleaving_refuse_then_refresh(seed):
    rng = random.Random(seed * 7919 + 3)
    graph = make_random_graph(seed, num_nodes=14, num_edges=26)
    specs = mixed_batch(seed)
    cut = rng.randrange(1, len(specs))
    with MatchSession(graph) as session:
        first = session.run_batch(specs[:cut])
        for spec, result in zip(specs[:cut], first):
            assert_same(result, one_shot(spec, graph, session.config))

        _mutate(graph, rng)
        assert session.stale
        with pytest.raises(StaleSessionError):
            session.run_batch(specs[cut:])

        session.refresh()
        second = session.run_batch(specs[cut:])
        for spec, result in zip(specs[cut:], second):
            assert_same(result, one_shot(spec, graph, session.config))


@given(seed=st.integers(0, 10_000))
@SETTINGS
def test_mutation_interleaving_refresh_policy(seed):
    rng = random.Random(seed * 104729 + 11)
    graph = make_random_graph(seed + 1, num_nodes=14, num_edges=26)
    specs = mixed_batch(seed + 1)
    cut = rng.randrange(1, len(specs))
    with MatchSession(graph, on_mutation="refresh") as session:
        session.run_batch(specs[:cut])
        _mutate(graph, rng)
        results = session.run_batch(specs[cut:])
        for spec, result in zip(specs[cut:], results):
            assert_same(result, one_shot(spec, graph, session.config))


def _mutate(graph, rng: random.Random) -> None:
    """A few random structural edits (always at least one)."""
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.4:
            graph.add_node(rng.choice("ABC"))
        elif roll < 0.8:
            a = rng.randrange(graph.num_nodes)
            b = rng.randrange(graph.num_nodes)
            if a != b and not graph.has_edge(a, b):
                graph.add_edge(a, b)
            else:
                graph.add_node(rng.choice("ABC"))
        else:
            edges = list(graph.edges())
            if edges:
                src, dst = rng.choice(edges)
                graph.remove_edge(src, dst)
            else:
                graph.add_node(rng.choice("ABC"))
