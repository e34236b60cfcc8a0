"""Selection policies: what the engine keeps in its answer set ``S``.

The engine visits matches of the output node one at a time, each with
its exact relevance; a policy decides which k of them constitute the
current answer set and when Proposition 3 lets the engine stop.  Two
policies realise the paper's two problems:

* :class:`RelevancePolicy` — topKP (Section 4): a heap of the k visited
  matches with the largest relevance.
* :class:`DiversifiedPolicy` — topKDP via the ``TopKDH`` heuristic
  (Section 5.2): greedily swap visited matches into ``S`` when the swap
  increases ``F`` (``δ'r`` for relevance, Jaccard over the relevant sets
  for distance).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, AbstractSet

from repro.ranking.diversification import DiversificationObjective

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topk.engine import TopKEngine


class SelectionPolicy(ABC):
    """Maintains the answer set over the visited output matches."""

    engine: "TopKEngine"

    def bind(self, engine: "TopKEngine") -> None:
        self.engine = engine

    @abstractmethod
    def on_visit(self, v: int, pid: int, value: float) -> None:
        """Called once per visited match, with its exact relevance."""

    @abstractmethod
    def can_stop(self, k: int, bound: float) -> bool:
        """Proposition 3: no unvisited match, each worth at most
        ``bound``, can improve the answer set."""

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
    """topKP: the k visited matches with the greatest relevance.

    A min-heap of ``(value, -v, pid)``: its root is the k-th best match,
    ties broken towards the smaller id, and Proposition 3 holds once the
    heap is full and its root is worth at least every unvisited bound.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []

    def bind(self, engine: "TopKEngine") -> None:
        super().bind(engine)
        self._heap = []

    def on_visit(self, v: int, pid: int, value: float) -> None:
        heap = self._heap
        item = (value, -v, pid)
        if len(heap) < self.engine.k:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)

    def can_stop(self, k: int, bound: float) -> bool:
        heap = self._heap
        return len(heap) >= k and heap[0][0] >= bound

    def selection(self, k: int) -> list[tuple[int, int]]:
        best = sorted(self._heap, reverse=True)[:k]
        return [(-negated, pid) for _, negated, pid in best]


class DiversifiedPolicy(SelectionPolicy):
    """topKDP: the TopKDH greedy-swap heuristic over ``F``.

    Visited matches are integrated in batches:

    * while ``|S| < k`` the new match joins outright (paper case (a));
    * otherwise the swap ``S \\ {v} ∪ {v'}`` with the largest positive
      ``F`` gain is applied (case (b)).

    ``F*`` is a sum of member terms and pair terms (Section 3.4), so the
    gain of swapping member ``s_i`` for a fresh match ``c`` is::

        (1-λ)(r_c - r_i) + 2λ/(k-1) (Σ_j d(c, s_j) - d(c, s_i) - D_i)

    with ``D_i = Σ_j d(s_i, s_j)``.  Each integration reads the members'
    relevant sets once, keeps their pairwise distances and row sums
    ``D_i``, and scores a fresh match with k distance evaluations.

    Every ``⌈|Mu|/64⌉`` visits the policy integrates and tests
    Proposition 3: the smallest relevance in ``S`` against the largest
    outside it, exact for visited matches and the bound otherwise.
    """

    def __init__(self, objective: DiversificationObjective) -> None:
        self.objective = objective
        self._selected: list[tuple[int, int]] = []
        self._fresh: list[tuple[int, int]] = []
        self._seen: list[tuple[int, int]] = []
        self._visits = 0
        self._period = 1

    def bind(self, engine: "TopKEngine") -> None:
        super().bind(engine)
        self._selected = []
        self._fresh = []
        self._seen = []
        self._visits = 0
        self._period = max(1, -(-engine.num_matches // 64))
        self.objective.prepare(engine.context)

    def on_visit(self, v: int, pid: int, value: float) -> None:
        self._fresh.append((v, pid))
        self._seen.append((v, pid))

    def can_stop(self, k: int, bound: float) -> bool:
        self._visits += 1
        if self._visits % self._period:
            return False
        selected = self.selection(k)
        if len(selected) < k:
            return False
        value = self.engine.value
        inside = {pid for _, pid in selected}
        outside = max(
            (value(pid) for _, pid in self._seen if pid not in inside), default=bound
        )
        return min(value(pid) for pid in inside) >= max(outside, bound)

    def _score(self, members: list[tuple[int, int]]) -> float:
        engine = self.engine
        rsets = {v: engine.relevant_set(pid) for v, pid in members}
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
        # Per member i of S: relevant set, relevance r_i, the distance row
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
                rsets = [engine.relevant_set(pid) for _, pid in selected]
                rel = [relevance.value(ctx, v, r) for (v, _), r in zip(selected, rsets)]
                dist = [[0.0] * len(selected) for _ in selected]
                if scale:
                    for i, (v1, _) in enumerate(selected):
                        for j in range(i + 1, len(selected)):
                            d = distance.distance(ctx, v1, rsets[i], selected[j][0], rsets[j])
                            dist[i][j] = dist[j][i] = d
                rows = [sum(row) for row in dist]
            v, pid = candidate
            rset = engine.relevant_set(pid)
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
        """Re-run the greedy swap over every visited match.

        The swaps made during the run saw the matches in bound order;
        replaying them from the k most relevant visited matches lets
        later visits displace early picks.  Extra cost: ``k(k-1)/2``
        distance evaluations for the initial ``S`` plus ``k`` per further
        visited match, i.e. ``O(k · |visited|)`` — within the paper's
        ``O(k|V|²)`` budget for the heuristic's selection step.
        """
        if not self._seen:
            return []
        value = self.engine.value
        ordered = sorted(set(self._seen), key=lambda item: (-value(item[1]), item[0]))
        self._selected = ordered[:k]
        self._fresh = ordered[k:]
        self._integrate(k)
        return list(self._selected)

    def objective_value(self, k: int) -> float | None:
        self._integrate(k)
        if not self._selected:
            return None
        return self._score(self._selected)
