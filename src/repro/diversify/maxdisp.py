"""Greedy 2-approximation for Maximum Dispersion (MAXDISP).

Hassin, Rubinstein & Tamir (Operations Research Letters 1997): to pick a
k-node subgraph of a weighted complete graph maximising the sum of node
and edge weights, repeatedly take the pair maximising the combined weight
``w(v1) + w(v2) + w(v1, v2)`` and remove it; ``⌊k/2⌋`` rounds give a
2-approximation.

Section 5.1 of the paper reduces topKDP to MAXDISP: nodes are the matches
of ``uo`` weighted by scaled relevance, edges by scaled distance, so that
the induced-subgraph weight of a k-set equals ``F(S)``.  ``TopKDiv``
simulates this greedy — implemented here over an abstract pair objective
so both the paper's ``F'`` and test instances can drive it.
"""

from __future__ import annotations

from array import array
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def greedy_max_dispersion(
    items: Sequence[T],
    k: int,
    pair_weight: Callable[[T, T], float],
    single_weight: Callable[[T], float] | None = None,
) -> list[T]:
    """Greedy MAXDISP selection of ``k`` items.

    ``pair_weight(a, b)`` is the full objective contribution of a chosen
    pair; it must be symmetric.  Each round takes the heaviest remaining
    pair, the first in item order on ties.  For odd ``k`` the final
    element maximises ``single_weight`` plus its pair weights to the
    already-selected items (the paper's "greedily select v maximising
    F(S ∪ {v})" step).

    For ``k ≥ 2`` every pair weight is evaluated once, ``n(n-1)/2`` calls
    for ``n`` items, into a flat triangle of doubles.  The rounds scan a
    copy of it and the final step reads it: ``8n(n-1)`` bytes in all.

    Returns all items when ``k >= len(items)``.
    """
    pool = list(items)
    n = len(pool)
    if k >= n:
        return pool
    # Row i of the triangle holds w(i, j) for j > i at start[i] + j - i - 1.
    start = [i * n - i * (i + 1) // 2 for i in range(n + 1)]
    weights = array("d")
    if k >= 2:
        weights.extend(pair_weight(pool[i], pool[j]) for i in range(n) for j in range(i + 1, n))
    # ``live`` masks the pairs of chosen items with -inf, which never wins.
    live = array("d", weights)
    removed = float("-inf")
    chosen: list[int] = []

    for _ in range(k // 2):
        best_pair: tuple[int, int] | None = None
        best_score = float("-inf")
        for i in range(n - 1):
            row = live[start[i] : start[i + 1]]
            score = max(row)
            if score > best_score:
                best_score = score
                best_pair = (i, i + 1 + row.index(score))
        if best_pair is None:
            break
        i, j = best_pair
        chosen += [j, i]
        for x in best_pair:
            live[start[x] : start[x + 1]] = array("d", [removed]) * (n - 1 - x)
            for y in range(x):
                live[start[y] + x - y - 1] = removed

    if len(chosen) < k:
        taken = set(chosen)
        rest = [x for x in range(n) if x not in taken]
        best_item = rest[0]
        best_score = float("-inf")
        for x in rest:
            score = single_weight(pool[x]) if single_weight is not None else 0.0
            score += sum(weights[start[min(x, c)] + abs(x - c) - 1] for c in chosen)
            if score > best_score:
                best_score = score
                best_item = x
        chosen.append(best_item)

    return [pool[x] for x in chosen]
