"""Distance (diversity) functions ``δd`` / ``δ*d`` (paper Sections 3.2, 3.4).

The paper's primary distance is the Jaccard distance between relevant
sets::

    δd(v1, v2) = 1 - |R(v1) ∩ R(v2)| / |R(v1) ∪ R(v2)|

which is a metric (symmetric, triangle inequality) — the test-suite checks
the axioms property-based.  Two matches with identical social reach are at
distance 0 (Example 5: ``δd(PM3, PM4) = 0``).

Section 3.4 generalises to any PTIME metric over relevant sets; the two
named there (neighbourhood diversity, distance-based diversity) live in
:mod:`repro.ranking.generalized`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet

from repro.graph.csr import FrozenBitset
from repro.ranking.context import RankingContext


class DistanceFunction(ABC):
    """A generalised distance function ``δ*d`` between two matches."""

    name = "abstract"

    def prepare(self, ctx: RankingContext) -> None:
        """Hook to precompute constants; called once before scoring."""

    @abstractmethod
    def distance(
        self,
        ctx: RankingContext,
        v1: int,
        rset1: AbstractSet[int],
        v2: int,
        rset2: AbstractSet[int],
    ) -> float:
        """``δ*d(v1, v2)`` given the two relevant sets."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def jaccard_distance(rset1: AbstractSet[int], rset2: AbstractSet[int]) -> float:
    """``1 - |A ∩ B| / |A ∪ B|``; two empty sets are at distance 0.

    Two :class:`~repro.graph.csr.FrozenBitset` views over one interner
    take the popcounts of their masks' AND and OR.
    """
    if (
        type(rset1) is FrozenBitset
        and type(rset2) is FrozenBitset
        and rset1.interner is rset2.interner
    ):
        a, b = rset1.mask, rset2.mask
        union = (a | b).bit_count()
        if not union:
            return 0.0
        return 1.0 - (a & b).bit_count() / union
    if not rset1 and not rset2:
        return 0.0
    intersection = len(rset1 & rset2)
    union = len(rset1) + len(rset2) - intersection
    return 1.0 - intersection / union


class JaccardDistance(DistanceFunction):
    """The paper's ``δd`` (Section 3.2)."""

    name = "jaccard"

    def distance(
        self,
        ctx: RankingContext,
        v1: int,
        rset1: AbstractSet[int],
        v2: int,
        rset2: AbstractSet[int],
    ) -> float:
        return jaccard_distance(rset1, rset2)


def pairwise_distances(
    ctx: RankingContext,
    matches: list[int],
    function: DistanceFunction | None = None,
) -> dict[tuple[int, int], float]:
    """All pairwise distances over ``matches`` (keys are sorted pairs)."""
    fn = function if function is not None else JaccardDistance()
    fn.prepare(ctx)
    result: dict[tuple[int, int], float] = {}
    for i, v1 in enumerate(matches):
        rset1 = ctx.relevant[v1]
        for v2 in matches[i + 1 :]:
            key = (v1, v2) if v1 < v2 else (v2, v1)
            result[key] = fn.distance(ctx, v1, rset1, v2, ctx.relevant[v2])
    return result


def distance_sum(
    ctx: RankingContext,
    matches: list[int],
    function: DistanceFunction | None = None,
) -> float:
    """``Σ_{i<j} δd(vi, vj)`` over a match set."""
    fn = function if function is not None else JaccardDistance()
    fn.prepare(ctx)
    total = 0.0
    for i, v1 in enumerate(matches):
        rset1 = ctx.relevant[v1]
        for v2 in matches[i + 1 :]:
            total += fn.distance(ctx, v1, rset1, v2, ctx.relevant[v2])
    return total
