"""Tests for the Jaccard distance and pairwise helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.graph.csr import FrozenBitset, NodeInterner
from repro.ranking.context import RankingContext
from repro.ranking.distance import (
    JaccardDistance,
    distance_sum,
    jaccard_distance,
    pairwise_distances,
)


class TestJaccard:
    def test_disjoint_sets_distance_one(self):
        assert jaccard_distance({1, 2}, {3}) == 1.0

    def test_equal_sets_distance_zero(self):
        assert jaccard_distance({1, 2}, {1, 2}) == 0.0

    def test_both_empty_distance_zero(self):
        assert jaccard_distance(set(), set()) == 0.0

    def test_empty_vs_nonempty_distance_one(self):
        assert jaccard_distance(set(), {1}) == 1.0

    def test_partial_overlap(self):
        assert abs(jaccard_distance({1, 2, 3}, {3, 4}) - 0.75) < 1e-12

    @given(
        universe=st.sets(st.integers(0, 200), max_size=60),
        picks=st.lists(st.booleans(), min_size=120, max_size=120),
    )
    def test_bitsets_give_the_frozenset_float(self, universe, picks):
        # Same-interner views take the mask popcounts; the float must be
        # the one the frozenset path computes, bit for bit.
        interner = NodeInterner(universe)
        nodes = interner.node_of
        a = frozenset(v for v, pick in zip(nodes, picks) if pick)
        b = frozenset(v for v, pick in zip(nodes, picks[60:]) if pick)

        def view(members):
            return FrozenBitset(sum(1 << interner.bit_of[v] for v in members), interner)

        assert view(a) == a and view(b) == b
        assert jaccard_distance(view(a), view(b)) == jaccard_distance(a, b)


class TestPairwise:
    def test_pairwise_keys_sorted(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        dists = pairwise_distances(ctx, ctx.matches)
        assert len(dists) == 6  # C(4,2)
        assert all(a < b for a, b in dists)

    def test_distance_sum(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        matches = [fig1.node("PM1"), fig1.node("PM2"), fig1.node("PM3")]
        total = distance_sum(ctx, matches)
        assert abs(total - (10 / 11 + 1.0 + 0.25)) < 1e-12

    def test_distance_function_object(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        fn = JaccardDistance()
        d = fn.distance(ctx, 0, {1}, 1, {1})
        assert d == 0.0
