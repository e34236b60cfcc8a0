"""Graph simulation: computing the maximum match relation ``M(Q, G)``.

Implements the counter-based refinement of Henzinger, Henzinger & Kopke
(FOCS 1995), the algorithm the paper builds on ([18]; see also [11]):

* start from the candidate sets ``can(u)``;
* repeatedly remove ``(u, v)`` when some query edge ``(u, u')`` has no
  surviving successor match, propagating removals through predecessor
  counters until the greatest fixpoint.

Per Section 2.1, ``G`` matches ``Q`` only when *every* query node retains at
least one match; otherwise ``M(Q, G)`` is empty.  The greatest fixpoint is
kept available on the result for diagnostics either way.

Complexity: ``O(Σ_(u,u') Σ_{v ∈ can(u)} deg(v))`` ⊆ ``O(|Q| · |G|)`` for
counter initialisation plus the same bound for removals — matching the
``O((|Vp| + |V|)(|Ep| + |E|))`` the paper quotes for [11] on the graphs we
target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.graph.digraph import Graph
from repro.obs import current_metrics, trace
from repro.patterns.pattern import Pattern
from repro.simulation.candidates import CandidateSets, compute_candidates


@dataclass
class SimulationResult:
    """The outcome of a simulation fixpoint.

    Attributes
    ----------
    pattern, graph:
        The inputs.
    sim:
        The greatest simulation: ``sim[u]`` is the set of data nodes that
        (forward-)simulate query node ``u``.  This is meaningful even when
        the match is not total.
    total:
        True when every query node has at least one match — the paper's
        condition for ``G`` matching ``Q``.
    candidates:
        The candidate sets the fixpoint started from.
    """

    pattern: Pattern
    graph: Graph
    sim: list[set[int]]
    total: bool
    candidates: CandidateSets
    _match_count: int | None = field(default=None, repr=False)

    def matches_of(self, u: int) -> set[int]:
        """``{v : (u, v) ∈ M(Q,G)}`` — empty when the match is not total."""
        if not self.total:
            return set()
        return self.sim[u]

    def output_matches(self) -> set[int]:
        """``Mu(Q, G, uo)`` for the pattern's single output node."""
        return self.matches_of(self.pattern.output_node)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``M(Q,G)`` as ``(u, v)`` pairs (empty if not total)."""
        if not self.total:
            return
        for u, matched in enumerate(self.sim):
            for v in sorted(matched):
                yield (u, v)

    @property
    def relation_size(self) -> int:
        """``|M(Q,G)|`` — number of match pairs (0 when not total)."""
        if not self.total:
            return 0
        if self._match_count is None:
            self._match_count = sum(len(s) for s in self.sim)
        return self._match_count

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = pair
        return self.total and v in self.sim[u]


def maximal_simulation(
    pattern: Pattern,
    graph: Graph,
    candidates: CandidateSets | None = None,
    optimized: bool = True,
) -> SimulationResult:
    """Compute the maximum simulation of ``pattern`` in ``graph``.

    ``candidates`` may be supplied to reuse a previously computed
    :class:`CandidateSets` (the top-k engines do this).  With
    ``optimized`` (the default) the fixpoint runs over the graph's
    compiled CSR snapshot (:mod:`repro.simulation.csr_kernel`);
    ``optimized=False`` forces the dict-of-sets reference path.  Both
    paths compute the identical greatest fixpoint.
    """
    if candidates is None:
        candidates = compute_candidates(pattern, graph, optimized=optimized)

    if optimized:
        from repro.simulation.csr_kernel import simulation_fixpoint_csr

        sim = simulation_fixpoint_csr(pattern, graph, candidates)
        total = all(sim[u] for u in pattern.nodes()) and pattern.num_nodes > 0
        return SimulationResult(pattern, graph, sim, total, candidates)

    with trace("simulation.fixpoint", path="dict") as span:
        sim, removals = _reference_fixpoint(pattern, graph, candidates)
        if span is not None:
            span.set_attr(removals=removals)
    registry = current_metrics()
    if registry is not None:
        registry.counter(
            "repro_simulation_fixpoints_total",
            "Simulation fixpoint computations by path.",
        ).inc(1, path="dict")
    total = all(sim[u] for u in pattern.nodes()) and pattern.num_nodes > 0
    return SimulationResult(pattern, graph, sim, total, candidates)


def _reference_fixpoint(
    pattern: Pattern,
    graph: Graph,
    candidates: CandidateSets,
) -> tuple[list[set[int]], int]:
    """The dict-of-sets HHK fixpoint plus the number of pair removals."""
    sim: list[set[int]] = [set(lst) for lst in candidates.lists]
    edges = list(pattern.edges())
    # counters[e][v] = |successors(v) ∩ sim(u')| for edge e = (u, u'), v ∈ sim(u)
    counters: list[dict[int, int]] = []
    removal_queue: deque[tuple[int, int]] = deque()
    removed_pairs: set[tuple[int, int]] = set()

    # Group the pattern edges leaving each query node so that a node's
    # counters can be initialised in one scan of its successors.
    edges_from: list[list[int]] = [[] for _ in pattern.nodes()]
    edges_into: list[list[int]] = [[] for _ in pattern.nodes()]
    for edge_index, (u, u_child) in enumerate(edges):
        edges_from[u].append(edge_index)
        edges_into[u_child].append(edge_index)

    for edge_index, (u, u_child) in enumerate(edges):
        child_sim = sim[u_child]
        edge_counters: dict[int, int] = {}
        for v in candidates.lists[u]:
            count = 0
            for child in graph.successors(v):
                if child in child_sim:
                    count += 1
            edge_counters[v] = count
            if count == 0 and (u, v) not in removed_pairs:
                removed_pairs.add((u, v))
                removal_queue.append((u, v))
        counters.append(edge_counters)

    # Apply queued removals and propagate through predecessor counters.
    removals = len(removed_pairs)
    for u, v in removed_pairs:
        sim[u].discard(v)
    while removal_queue:
        u_child, v_child = removal_queue.popleft()
        for edge_index in edges_into[u_child]:
            u = edges[edge_index][0]
            edge_counters = counters[edge_index]
            for v in graph.predecessors(v_child):
                count = edge_counters.get(v)
                if count is None:
                    continue
                count -= 1
                edge_counters[v] = count
                if count == 0 and v in sim[u]:
                    sim[u].discard(v)
                    removals += 1
                    removal_queue.append((u, v))

    return sim, removals


def naive_simulation(pattern: Pattern, graph: Graph) -> list[set[int]]:
    """Reference fixpoint by repeated full scans (test oracle only).

    Quadratic-ish and simple enough to be obviously correct; the test-suite
    cross-checks :func:`maximal_simulation` against it on random inputs.
    """
    candidates = compute_candidates(pattern, graph)
    sim = [set(lst) for lst in candidates.lists]
    changed = True
    while changed:
        changed = False
        for u, u_child in pattern.edges():
            child_sim = sim[u_child]
            surviving = set()
            for v in sim[u]:
                if any(child in child_sim for child in graph.successors(v)):
                    surviving.add(v)
            if len(surviving) != len(sim[u]):
                sim[u] = surviving
                changed = True
    return sim


def matches(pattern: Pattern, graph: Graph) -> SimulationResult:
    """Public convenience wrapper: the paper's ``M(Q, G)``."""
    pattern.validate(require_output=False)
    return maximal_simulation(pattern, graph)
