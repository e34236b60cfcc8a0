"""A small reference for top-k matching, transcribed from the paper.

No fast paths: the maximal simulation comes from ``naive_simulation``
(repeated full scans from ``can(u)``, read off the live nodes one by
one), ``R(uo, v)`` from a breadth-first search over the
match-pair graph from ``(uo, v)`` through at least one edge (Section
3.1), the optimum from sorting, and the diversified optimum from
enumerating every k-set (Section 3.3).  The library's engines are
checked against it, never against each other.  ``upper_bounds``
transcribes the bound that orders the visits: the children-first sum
over the mutual-reachability condensation of the BFS match-pair graph.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern

WILDCARD = "*"


def candidates(pattern: Pattern, graph: Graph, u: int) -> set[int]:
    """``can(u)``: live nodes with ``u``'s label (any, for ``*``) that
    satisfy ``u``'s predicate (Section 2.2)."""
    label, predicate = pattern.label(u), pattern.predicate(u)
    return {
        v
        for v in graph.nodes()
        if graph.is_live(v)
        and label in (WILDCARD, graph.label(v))
        and (predicate is None or predicate.matches(graph, v))
    }


def naive_simulation(pattern: Pattern, graph: Graph) -> list[set[int]]:
    """The greatest simulation by repeated full scans (Section 2.1).

    Starts from ``can(u)`` and drops ``v`` from ``sim(u)`` while some
    pattern edge ``(u, u')`` leaves ``v`` without a successor in
    ``sim(u')``, until a scan drops nothing.
    """
    sim = [candidates(pattern, graph, u) for u in pattern.nodes()]
    changed = True
    while changed:
        changed = False
        for u, u_child in pattern.edges():
            child_sim = sim[u_child]
            surviving = {
                v for v in sim[u] if any(w in child_sim for w in graph.successors(v))
            }
            if len(surviving) != len(sim[u]):
                sim[u] = surviving
                changed = True
    return sim


def simulation(pattern: Pattern, graph: Graph) -> list[set[int]] | None:
    """``M(Q, G)`` per query node, or ``None`` when G does not match Q."""
    sim = naive_simulation(pattern, graph)
    return sim if all(sim) else None


def reachable_query_nodes(pattern: Pattern, u: int) -> set[int]:
    """Query nodes ``u`` reaches through at least one edge."""
    seen: set[int] = set()
    queue = deque(pattern.successors(u))
    while queue:
        w = queue.popleft()
        if w not in seen:
            seen.add(w)
            queue.extend(pattern.successors(w))
    return seen


def pair_children(
    pattern: Pattern, graph: Graph, sim: list[set[int]], pair: tuple[int, int]
) -> set[tuple[int, int]]:
    """The match pairs one edge of the match-pair graph leads to."""
    u, v = pair
    return {
        (child, w)
        for child in pattern.successors(u)
        for w in graph.successors(v)
        if w in sim[child]
    }


def reachable_pairs(
    pattern: Pattern, graph: Graph, sim: list[set[int]], pair: tuple[int, int]
) -> set[tuple[int, int]]:
    """The match pairs ``pair`` reaches through at least one edge (BFS)."""
    seen: set[tuple[int, int]] = set()
    queue = deque(pair_children(pattern, graph, sim, pair))
    while queue:
        step = queue.popleft()
        if step not in seen:
            seen.add(step)
            queue.extend(pair_children(pattern, graph, sim, step))
    return seen


def relevant_set(
    pattern: Pattern, graph: Graph, sim: list[set[int]], u: int, v: int
) -> frozenset[int]:
    """``R(u, v)``: data nodes of the match pairs ``(u, v)`` reaches."""
    return frozenset(w for _, w in reachable_pairs(pattern, graph, sim, (u, v)))


def upper_bounds(
    pattern: Pattern, graph: Graph, sim: list[set[int]], u: int
) -> dict[int, int]:
    """``ub`` of every match of ``u``: the bound the visit order reads.

    The match pairs of ``u``'s region are condensed by mutual
    reachability; a component is cyclic when its pairs reach themselves.
    Children first, ``ub(c) = [c cyclic]·|data(c)| + Σ_{child d}
    (ub(d) + |data(d)|)``, capped at ``|⋃ sim(u')|`` over the query
    nodes ``u`` reaches.
    """
    reached = reachable_query_nodes(pattern, u)
    pairs = [(w, v) for w in reached | {u} for v in sim[w]]
    reach = {pair: reachable_pairs(pattern, graph, sim, pair) for pair in pairs}
    comp = {p: frozenset({p} | {q for q in reach[p] if p in reach[q]}) for p in pairs}
    cap = len(set().union(*(sim[w] for w in reached)))
    bound: dict[frozenset, int] = {}

    def ub(c: frozenset) -> int:
        if c not in bound:
            children = {comp[q] for p in c for q in pair_children(pattern, graph, sim, p)}
            children.discard(c)
            cyclic = any(p in reach[p] for p in c)
            total = len({v for _, v in c}) if cyclic else 0
            total += sum(ub(d) + len({v for _, v in d}) for d in children)
            bound[c] = min(total, cap)
        return bound[c]

    return {v: ub(comp[(u, v)]) for v in sim[u]}


def optimum(values: dict[int, float], k: int) -> float:
    """The largest relevance sum over k matches (Prop. 3's target)."""
    return sum(sorted(values.values(), reverse=True)[:k])


def normalisation(pattern: Pattern, graph: Graph, u: int) -> int:
    """``C_u``: the candidates of the query nodes ``u`` reaches."""
    return sum(len(candidates(pattern, graph, w)) for w in reachable_query_nodes(pattern, u))


def objective(
    rsets: dict[int, frozenset[int]], members: tuple[int, ...], k: int, lam: float, c: int
) -> float:
    """``F(S)`` (Section 3.3): ``δ'r = |R| / C_uo`` and Jaccard ``δd``."""
    relevance = sum(len(rsets[v]) / c for v in members) if c else 0.0
    diversity = 0.0
    for a, b in combinations(members, 2):
        union = rsets[a] | rsets[b]
        if union:
            diversity += 1.0 - len(rsets[a] & rsets[b]) / len(union)
    scale = 2.0 * lam / (k - 1) if k > 1 else 0.0
    return (1.0 - lam) * relevance + scale * diversity


def diversified_optimum(
    rsets: dict[int, frozenset[int]], k: int, lam: float, c: int
) -> float:
    """``F(S*)``: the best ``F`` over every ``min(k, |Mu|)``-set of matches."""
    size = min(k, len(rsets))
    return max(
        objective(rsets, members, k, lam, c)
        for members in combinations(sorted(rsets), size)
    )


def planted_instance(
    seed: int, cyclic: bool, pattern_nodes: int = 4, graph_nodes: int = 30,
    noise_edges: int = 110, labels: str = "ABC",
) -> tuple[Graph, Pattern]:
    """A random pattern and a random graph that matches it by construction.

    The pattern is a random tree from node 0 plus two extra edges: forward
    ones only for DAGs; for cyclic patterns any direction, plus one edge
    back from the last node to one of its ancestors (sometimes itself).
    The graph holds an injective image of the pattern — one node per
    query node with its label, one edge per pattern edge — so the
    maximal simulation is total; noise nodes and edges come on top.
    """
    rng = random.Random(seed)
    pattern = Pattern()
    for _ in range(pattern_nodes):
        pattern.add_node(rng.choice(labels))
    parent = [-1]
    for child in range(1, pattern_nodes):
        parent.append(rng.randrange(child))
        pattern.add_edge(parent[-1], child)
    added = tries = 0
    while added < 2 and tries < 50:
        tries += 1
        a, b = rng.randrange(pattern_nodes), rng.randrange(pattern_nodes)
        if not cyclic:
            a, b = min(a, b), max(a, b)
        if a == b or pattern.has_edge(a, b):
            continue
        pattern.add_edge(a, b)
        added += 1
    if cyclic:
        last = pattern_nodes - 1
        ancestors = [last]
        while parent[ancestors[-1]] >= 0:
            ancestors.append(parent[ancestors[-1]])
        target = rng.choice(ancestors)
        if not pattern.has_edge(last, target):
            pattern.add_edge(last, target)
    pattern.set_output(0)

    graph = Graph()
    image = [graph.add_node(pattern.label(u)) for u in pattern.nodes()]
    for a, b in pattern.edges():
        graph.add_edge(image[a], image[b])
    for _ in range(graph_nodes - pattern_nodes):
        graph.add_node(rng.choice(labels))
    added = 0
    while added < noise_edges:
        a, b = rng.randrange(graph_nodes), rng.randrange(graph_nodes)
        if not graph.has_edge(a, b):
            graph.add_edge(a, b)
            added += 1
    return graph, pattern
