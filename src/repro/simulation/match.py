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

from dataclasses import dataclass, field
from typing import Iterator

from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern
from repro.simulation.candidates import CandidateSets, compute_candidates
from repro.simulation.csr_kernel import simulation_fixpoint_csr


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
) -> SimulationResult:
    """Compute the maximum simulation of ``pattern`` in ``graph``.

    ``candidates`` may be supplied to reuse a previously computed
    :class:`CandidateSets` (the top-k engines do this).  The fixpoint
    runs over the graph's compiled CSR snapshot
    (:mod:`repro.simulation.csr_kernel`).
    """
    if candidates is None:
        candidates = compute_candidates(pattern, graph)
    sim = simulation_fixpoint_csr(pattern, graph, candidates)
    total = all(sim[u] for u in pattern.nodes()) and pattern.num_nodes > 0
    return SimulationResult(pattern, graph, sim, total, candidates)


def matches(pattern: Pattern, graph: Graph) -> SimulationResult:
    """Public convenience wrapper: the paper's ``M(Q, G)``."""
    pattern.validate(require_output=False)
    return maximal_simulation(pattern, graph)
