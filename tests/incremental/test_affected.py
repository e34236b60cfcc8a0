"""Unit suite for the label-affectedness filter.

:meth:`PatternLabelSignature.affects_op` decides, per op and cached
pattern, whether the session cache repairs the pattern's relation at
all.  Its invariants are pinned directly: the per-kind label tests,
wildcards on either end of a pattern edge, and soundness — an op the
filter lets pass by never changes the relation.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.delta import ADD_EDGE, ADD_NODE, REMOVE_EDGE, REMOVE_NODE, SET_ATTRS
from repro.graph.digraph import Graph
from repro.incremental.affected import PatternLabelSignature
from repro.patterns.pattern import Pattern
from repro.patterns.predicates import AttrCompare
from repro.simulation.candidates import WILDCARD_LABEL
from repro.simulation.match import maximal_simulation

from tests.conftest import make_random_graph, make_random_pattern

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def recorded_mutations(graph: Graph, rng: random.Random, steps: int):
    """Mutate ``graph`` randomly, one mutation per step; yields the
    events each step emitted."""
    for _ in range(steps):
        ops: list = []
        unsubscribe = graph.add_listener(ops.append)
        roll = rng.random()
        edges = list(graph.edges())
        live = [v for v in graph.nodes() if graph.is_live(v)]
        if roll < 0.30 and edges:
            graph.remove_edge(*rng.choice(edges))
        elif roll < 0.55 and len(live) >= 2:
            src, dst = rng.choice(live), rng.choice(live)
            if not graph.has_edge(src, dst):
                graph.add_edge(src, dst)
        elif roll < 0.70:
            graph.add_node(rng.choice("ABC"))
        elif roll < 0.85 and len(live) > 3:
            graph.remove_node(rng.choice(live))
        elif live:
            graph.set_attrs(rng.choice(live), w=rng.randrange(5))
        unsubscribe()
        yield ops


def test_affects_op_per_kind():
    graph = Graph()
    a = graph.add_node("A")
    b = graph.add_node("B")
    graph.add_edge(a, b)
    pattern = Pattern()
    q_a = pattern.add_node("A", output=True)
    q_b = pattern.add_node("B", predicate=AttrCompare("w", ">", 1))
    pattern.add_edge(q_a, q_b)
    sig = PatternLabelSignature.from_pattern(pattern)

    ops: list = []
    unsubscribe = graph.add_listener(ops.append)
    c = graph.add_node("C")
    graph.set_attrs(b, w=1)
    graph.set_attrs(a, w=1)
    graph.add_edge(b, a)
    graph.add_edge(a, c)
    graph.remove_edge(a, b)
    graph.remove_node(b)  # emits remove_edge(b, a) then remove_node(b)
    unsubscribe()

    verdicts = [(op.kind, sig.affects_op(op, graph)) for op in ops]
    assert verdicts == [
        (ADD_NODE, False),  # C is no pattern label
        (SET_ATTRS, True),  # B is predicated
        (SET_ATTRS, False),  # A is not
        (ADD_EDGE, False),  # B -> A is no pattern edge
        (ADD_EDGE, False),  # A -> C neither
        (REMOVE_EDGE, True),  # A -> B is
        (REMOVE_EDGE, False),
        (REMOVE_NODE, True),  # a tombstoned node keeps its label
    ]


def test_wildcard_edge_pairs_hit_either_endpoint():
    graph = Graph()
    z, b, q = graph.add_node("Z"), graph.add_node("B"), graph.add_node("Q")
    pattern = Pattern()
    star = pattern.add_node(WILDCARD_LABEL)
    b_node = pattern.add_node("B")
    pattern.add_edge(star, b_node)
    pattern.set_output(b_node)
    sig = PatternLabelSignature.from_pattern(pattern)
    ops: list = []
    unsubscribe = graph.add_listener(ops.append)
    graph.add_edge(z, b)  # wildcard source matches any src label
    graph.add_edge(z, q)
    graph.add_node("Q")  # node adds always reach a wildcard pattern
    unsubscribe()
    assert [sig.affects_op(op, graph) for op in ops] == [True, False, True]


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 12))
@SETTINGS
def test_unaffected_ops_leave_the_relation_alone(seed, steps):
    graph = make_random_graph(seed, num_nodes=12, num_edges=20)
    rng = random.Random(seed + 7)
    pattern = make_random_pattern(
        seed, num_nodes=rng.randrange(2, 5), extra_edges=1, cyclic=bool(seed % 2)
    )
    if rng.random() < 0.4:
        pattern._predicates[rng.randrange(pattern.num_nodes)] = AttrCompare(
            "w", ">", 1
        )
        pattern._analysis = None
    sig = PatternLabelSignature.from_pattern(pattern)
    before = maximal_simulation(pattern, graph).sim
    for ops in recorded_mutations(graph, rng, steps):
        after = maximal_simulation(pattern, graph).sim
        if not any(sig.affects_op(op, graph) for op in ops):
            assert after == before
        before = after
