"""Shared fixtures: the paper's Figure 1 network and small random inputs."""

from __future__ import annotations

import random

import pytest

from repro.datasets.examples import example7_pattern, figure1
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern
from repro.patterns.predicates import AttrCompare
from repro.simulation.candidates import WILDCARD_LABEL


@pytest.fixture(scope="session")
def fig1():
    """The Figure 1 collaboration network + pattern Q (session-cached)."""
    return figure1()


@pytest.fixture()
def q1_dag():
    """Example 7's DAG pattern Q1."""
    return example7_pattern()


def make_random_graph(seed: int, num_nodes: int = 14, num_edges: int = 28,
                      labels: str = "ABC") -> Graph:
    """A small random labelled digraph for oracle comparisons."""
    rng = random.Random(seed)
    g = Graph()
    for _ in range(num_nodes):
        g.add_node(rng.choice(labels))
    added = 0
    while added < num_edges:
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
            added += 1
    return g


def make_random_pattern(seed: int, num_nodes: int = 3, extra_edges: int = 1,
                        labels: str = "ABC", cyclic: bool = False) -> Pattern:
    """A small random pattern (tree + extra edges), output node 0."""
    rng = random.Random(seed)
    p = Pattern()
    for _ in range(num_nodes):
        p.add_node(rng.choice(labels))
    for child in range(1, num_nodes):
        p.add_edge(rng.randrange(child), child)
    tries = 0
    added = 0
    while added < extra_edges and tries < 20:
        tries += 1
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a == b or p.has_edge(a, b):
            continue
        if not cyclic and b == 0:
            continue
        p.add_edge(a, b)
        added += 1
    p.set_output(0)
    return p


def rich_random_graph(seed: int, num_nodes: int = 16, num_edges: int = 34) -> Graph:
    """A random labelled graph with attributes and tombstones."""
    rng = random.Random(seed * 977 + 13)
    g = make_random_graph(seed, num_nodes=num_nodes, num_edges=num_edges)
    for v in g.nodes():
        if rng.random() < 0.7:
            g.set_attrs(v, score=rng.randrange(5))
    for _ in range(rng.randrange(3)):
        live = [v for v in g.nodes() if g.is_live(v)]
        if len(live) <= 4:
            break
        g.remove_node(rng.choice(live))
    return g


def rich_random_pattern(seed: int, cyclic: bool, labels: str = "ABC") -> Pattern:
    """A random pattern mixing plain labels, wildcards and predicates."""
    rng = random.Random(seed * 131 + 7)
    num_nodes = rng.randrange(3, 5)
    p = Pattern()
    for _ in range(num_nodes):
        roll = rng.random()
        if roll < 0.2:
            p.add_node(WILDCARD_LABEL)
        elif roll < 0.35:
            p.add_node(
                rng.choice(labels),
                predicate=AttrCompare("score", ">=", rng.randrange(3)),
            )
        else:
            p.add_node(rng.choice(labels))
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
