"""Candidate computation ``can(u)`` (paper Sections 3.3 and 4).

A data node ``v`` is a *candidate* of query node ``u`` when it satisfies
``u``'s search condition: equal label (``L(v) = fv(u)``) and, for predicate
patterns, the attribute predicate.  Candidate sets seed the simulation
fixpoint and drive the upper bounds ``C_u`` used by early termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRSnapshot

WILDCARD_LABEL = "*"
"""Pattern label matching any data node (attribute-only search conditions)."""


@dataclass(frozen=True)
class CandidateSets:
    """Candidates per query node, in list and set form.

    ``lists[u]`` preserves data-node order (deterministic iteration for the
    algorithms); ``sets[u]`` supports O(1) membership tests.
    """

    lists: list[list[int]]
    sets: list[set[int]]

    def of(self, u: int) -> list[int]:
        return self.lists[u]

    def count(self, u: int) -> int:
        return len(self.lists[u])

    def is_candidate(self, u: int, v: int) -> bool:
        return v in self.sets[u]

    @property
    def total(self) -> int:
        """Total candidate count over all query nodes."""
        return sum(len(lst) for lst in self.lists)

    def any_empty(self) -> bool:
        """True when some query node has no candidate (then ``M(Q,G) = ∅``)."""
        return any(not lst for lst in self.lists)


def label_bucket(graph: Graph, snapshot: "CSRSnapshot", label: str) -> list[int]:
    """The live nodes labelled ``label`` in ``snapshot``, ascending.

    The wildcard label ``"*"`` selects every live node; a label the
    graph never interned selects none.
    """
    if label == WILDCARD_LABEL:
        return snapshot.live_list()
    label_id = graph.labels.get(label)
    return [] if label_id is None else snapshot.label_bucket_list(label_id)


def compute_candidates(
    pattern: Pattern, graph: Graph, base_source=None
) -> CandidateSets:
    """Compute ``can(u)`` for every query node ``u``.

    The label filter is a contiguous bucket scan over the graph's
    compiled CSR snapshot (:meth:`Graph.snapshot`): live nodes in
    ascending id order.  The node predicate (if any) is applied on top;
    the wildcard label ``"*"`` matches any live node.

    ``base_source`` (``label -> list[int]``) overrides the pre-predicate
    base-list lookup — the session cache passes its shared label-bucket
    store here so repeated labels across a query batch scan once.  The
    returned lists may be shared and must not be mutated.
    """
    if base_source is None:
        base_source = partial(label_bucket, graph, graph.snapshot())
    lists: list[list[int]] = []
    sets: list[set[int]] = []
    for u in pattern.nodes():
        base = base_source(pattern.label(u))
        predicate = pattern.predicate(u)
        if predicate is not None:
            base = [v for v in base if predicate.matches(graph, v)]
        lists.append(base)
        sets.append(set(base))
    return CandidateSets(lists, sets)


def candidate_statistics(candidates: CandidateSets) -> dict[str, float]:
    """Summary statistics used by the experiment harness."""
    counts = [len(lst) for lst in candidates.lists]
    if not counts:
        return {"total": 0, "min": 0, "max": 0, "mean": 0.0}
    return {
        "total": sum(counts),
        "min": min(counts),
        "max": max(counts),
        "mean": sum(counts) / len(counts),
    }
