"""Selection policies: what the engine keeps in its answer heap ``S``.

The engine confirms matches of the output node one batch at a time; a
policy decides which k of them constitute the current answer set.  Two
policies realise the paper's two problems:

* :class:`RelevancePolicy` — topKP (Section 4): keep the k confirmed
  matches with the largest lower bounds ``v.l``.
* :class:`DiversifiedPolicy` — topKDP via the ``TopKDH`` heuristic
  (Section 5.2): greedily swap newly confirmed matches into ``S`` when the
  swap increases ``F''`` — the diversification function evaluated on the
  in-flight lower bounds (``v.l / C_uo`` for relevance, Jaccard over the
  partial relevant sets for distance).

Both share Proposition 3's termination test, which the engine evaluates
over the policy's current selection.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, AbstractSet

from repro.ranking.diversification import DiversificationObjective

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topk.engine import TopKEngine


class SelectionPolicy(ABC):
    """Maintains the candidate answer set over confirmed output matches."""

    engine: "TopKEngine"

    def bind(self, engine: "TopKEngine") -> None:
        self.engine = engine

    @abstractmethod
    def on_confirmed(self, v: int, pid: int) -> None:
        """Called once whenever an output-node match is confirmed."""

    @abstractmethod
    def selection(self, k: int) -> list[tuple[int, int]]:
        """The current answer set as ``(v, pid)`` pairs (at most k)."""

    def final_selection(self, k: int) -> list[tuple[int, int]]:
        """The answer set reported when the engine stops."""
        return self.selection(k)

    def objective_value(self, k: int) -> float | None:
        """``F(S)`` of the current selection; ``None`` for relevance-only."""
        return None


class RelevancePolicy(SelectionPolicy):
    """topKP: the k confirmed matches with the greatest lower bounds."""

    def __init__(self) -> None:
        self._confirmed: list[tuple[int, int]] = []

    def bind(self, engine: "TopKEngine") -> None:
        super().bind(engine)
        self._confirmed = []

    def on_confirmed(self, v: int, pid: int) -> None:
        self._confirmed.append((v, pid))

    def selection(self, k: int) -> list[tuple[int, int]]:
        confirmed = self._confirmed
        lowers = self.engine.lower_values([pid for _, pid in confirmed])
        best = heapq.nlargest(
            k,
            range(len(confirmed)),
            key=lambda i: (lowers[i], -confirmed[i][0]),
        )
        return [confirmed[i] for i in best]


class DiversifiedPolicy(SelectionPolicy):
    """topKDP: the TopKDH greedy-swap heuristic over ``F''``.

    After each batch the engine asks for the selection; newly confirmed
    matches accumulated since the previous call are integrated:

    * while ``|S| < k`` the new match joins outright (paper case (a));
    * otherwise the swap ``S \\ {v} ∪ {v'}`` with the largest positive
      ``F''`` gain is applied (case (b)).

    ``F*`` is a sum of member terms and pair terms (Section 3.4), so the
    gain of swapping member ``s_i`` for a fresh match ``c`` is::

        (1-λ)(r_c - r_i) + 2λ/(k-1) (Σ_j d(c, s_j) - d(c, s_i) - D_i)

    with ``D_i = Σ_j d(s_i, s_j)``.  Each integration reads the members'
    partial relevant sets once, keeps their pairwise distances and row
    sums ``D_i``, and scores a fresh match with k distance evaluations.
    """

    def __init__(self, objective: DiversificationObjective) -> None:
        self.objective = objective
        self._selected: list[tuple[int, int]] = []
        self._fresh: list[tuple[int, int]] = []
        self._seen: list[tuple[int, int]] = []

    def bind(self, engine: "TopKEngine") -> None:
        super().bind(engine)
        self._selected = []
        self._fresh = []
        self._seen = []
        self.objective.prepare(engine.context)

    def on_confirmed(self, v: int, pid: int) -> None:
        self._fresh.append((v, pid))
        self._seen.append((v, pid))

    def _score(self, members: list[tuple[int, int]]) -> float:
        engine = self.engine
        rsets = {v: engine.partial_relevant(pid) for v, pid in members}
        return self.objective.score(engine.context, [v for v, _ in members], rsets)

    def _integrate(self, k: int) -> None:
        """Integrate the fresh matches into ``S``.

        Costs ``k(k-1)/2`` distance evaluations to score the members
        (only once ``S`` is full), plus ``k`` per fresh match.
        """
        selected = self._selected
        fresh = self._fresh
        if not fresh:
            return
        engine = self.engine
        ctx = engine.context
        relevance = self.objective.relevance
        distance = self.objective.distance
        keep = 1.0 - self.objective.lam
        scale = self.objective.diversity_scale
        # Per member i of S: partial rset, relevance r_i, the distance row
        # d(s_i, ·) and its sum D_i.  Read once S is full and a swap is
        # tried, then kept current across swaps.
        rsets: list[AbstractSet[int]] | None = None
        rel: list[float] = []
        dist: list[list[float]] = []
        rows: list[float] = []
        while fresh:
            candidate = fresh.pop()
            if candidate in selected:
                continue
            if len(selected) < k:
                selected.append(candidate)
                continue
            if rsets is None:
                rsets = [engine.partial_relevant(pid) for _, pid in selected]
                rel = [relevance.value(ctx, v, r) for (v, _), r in zip(selected, rsets)]
                dist = [[0.0] * len(selected) for _ in selected]
                if scale:
                    for i, (v1, _) in enumerate(selected):
                        for j in range(i + 1, len(selected)):
                            d = distance.distance(ctx, v1, rsets[i], selected[j][0], rsets[j])
                            dist[i][j] = dist[j][i] = d
                rows = [sum(row) for row in dist]
            v, pid = candidate
            rset = engine.partial_relevant(pid)
            r_c = relevance.value(ctx, v, rset)
            if scale:
                dc = [
                    distance.distance(ctx, v, rset, member, r)
                    for (member, _), r in zip(selected, rsets)
                ]
            else:
                dc = [0.0] * len(selected)
            total = sum(dc)
            best_gain = 0.0
            best_index: int | None = None
            for i in range(len(selected)):
                gain = keep * (r_c - rel[i]) + scale * (total - dc[i] - rows[i])
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_index = i
            if best_index is None:
                continue
            # Swap c in for s_i: row i becomes c's distances, and every
            # other row trades d(s_j, s_i) for d(s_j, c).
            i = best_index
            old = dist[i]
            for j, d in enumerate(dc):
                if j != i:
                    rows[j] += d - old[j]
                    dist[j][i] = d
            rows[i] = total - dc[i]
            dc[i] = 0.0
            dist[i] = dc
            selected[i] = candidate
            rsets[i] = rset
            rel[i] = r_c

    def selection(self, k: int) -> list[tuple[int, int]]:
        self._integrate(k)
        return list(self._selected)

    def final_selection(self, k: int) -> list[tuple[int, int]]:
        """Re-run the greedy swap over every inspected match.

        When the engine stops, the inspected matches carry their final
        (often exact) relevant sets; replaying the greedy pass over all of
        them repairs early decisions made on thin partial bounds.  Extra
        cost: ``k(k-1)/2`` distance evaluations for the initial ``S`` plus
        ``k`` per further inspected match, i.e. ``O(k · |inspected|)`` —
        within the paper's ``O(k|V|²)`` budget for the heuristic's
        selection step.
        """
        if not self._seen:
            return []
        engine = self.engine
        ordered = sorted(
            set(self._seen),
            key=lambda item: (-engine.lower_value(item[1]), item[0]),
        )
        self._selected = ordered[:k]
        self._fresh = ordered[k:]
        self._integrate(k)
        return list(self._selected)

    def objective_value(self, k: int) -> float | None:
        self._integrate(k)
        if not self._selected:
            return None
        return self._score(self._selected)
