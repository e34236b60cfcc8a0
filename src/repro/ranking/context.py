"""Shared context object for ranking functions.

Every ranking function of the paper (Section 3) is defined over the same
ingredients: the pattern, the data graph, the simulation ``M(Q, G)``, the
candidate sets, the output node ``uo``, and the relevant sets of its
matches.  :class:`RankingContext` bundles them and computes the derived
constants (``C_uo``, the match set of descendant query nodes) lazily.
Its relevant sets are views of the output node's
:class:`~repro.simulation.relevant.Evaluation`, which a session shares
with the top-k engine.
"""

from __future__ import annotations

from functools import cached_property

from repro.errors import RankingError
from repro.graph import csr
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern
from repro.simulation.candidates import CandidateSets
from repro.simulation.match import SimulationResult, maximal_simulation
from repro.simulation.relevant import Evaluation, build_evaluation, relevant_sets


class RankingContext:
    """Inputs and cached derived data for ranking matches of ``uo``.

    ``simulation`` defaults to the maximal simulation of ``pattern`` in
    ``graph``.  ``evaluation`` supplies the output node's evaluation
    over ``simulation``; otherwise it is built on first use, over the
    graph's cached snapshot or, when a write has dropped it, over the
    live adjacency (:func:`~repro.simulation.relevant.build_evaluation`).
    """

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        simulation: SimulationResult | None = None,
        query_node: int | None = None,
        evaluation: Evaluation | None = None,
    ) -> None:
        self.pattern = pattern
        self.graph = graph
        self.simulation = (
            simulation if simulation is not None else maximal_simulation(pattern, graph)
        )
        self.query_node = query_node if query_node is not None else pattern.output_node
        if evaluation is not None:
            self.evaluation = evaluation

    @property
    def candidates(self) -> CandidateSets:
        return self.simulation.candidates

    @cached_property
    def matches(self) -> list[int]:
        """``Mu(Q, G, uo)`` in deterministic (sorted) order."""
        return sorted(self.simulation.matches_of(self.query_node))

    @cached_property
    def evaluation(self) -> Evaluation:
        """The pair graph, condensation and relevant-set memo of ``uo``."""
        return build_evaluation(self.pattern, self.graph, self.simulation.sim, self.query_node)

    @cached_property
    def relevant(self) -> dict[int, csr.FrozenBitset]:
        """``R(uo, v)`` per match ``v``."""
        return relevant_sets(
            self.pattern, self.graph, self.simulation.sim, self.query_node, self.evaluation
        )

    @cached_property
    def reachable_query_nodes(self) -> frozenset[int]:
        """Query nodes ``uo`` can reach via ≥ 1 edge (the paper's ``R(u)``)."""
        return self.pattern.analysis.reachable_from(self.query_node)

    @cached_property
    def normalisation(self) -> int:
        """``C_uo`` — total candidates of all query nodes ``uo`` reaches.

        This is the normalisation constant of ``δ'r`` (Section 3.3).
        """
        return sum(self.candidates.count(u) for u in self.reachable_query_nodes)

    @cached_property
    def descendant_matches(self) -> frozenset[int]:
        """``M(Q, G, R(uo))`` — all matches of ``uo``'s descendant query nodes."""
        collected: set[int] = set()
        for u in self.reachable_query_nodes:
            collected |= self.simulation.matches_of(u)
        return frozenset(collected)

    def relevance(self, v: int) -> int:
        """``δr(uo, v) = |R(uo, v)|``."""
        rset = self.relevant.get(v)
        if rset is None:
            raise RankingError(f"node {v} is not a match of query node {self.query_node}")
        return len(rset)

    def normalised_relevance(self, v: int) -> float:
        """``δ'r(uo, v) = δr(uo, v) / C_uo`` (0 when ``C_uo`` is 0)."""
        c = self.normalisation
        if c == 0:
            return 0.0
        return self.relevance(v) / c
