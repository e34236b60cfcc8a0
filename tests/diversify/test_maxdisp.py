"""Tests for the greedy MAXDISP core."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diversify.maxdisp import greedy_max_dispersion


def pair_weight_from(matrix):
    def weight(a, b):
        return matrix[(min(a, b), max(a, b))]
    return weight


class TestGreedyMaxDispersion:
    def test_selects_best_pair_first(self):
        weights = {(0, 1): 10.0, (0, 2): 1.0, (1, 2): 1.0}
        chosen = greedy_max_dispersion([0, 1, 2], 2, pair_weight_from(weights))
        assert set(chosen) == {0, 1}

    def test_k_larger_than_items_returns_all(self):
        chosen = greedy_max_dispersion([1, 2], 5, lambda a, b: 0.0)
        assert chosen == [1, 2]

    def test_odd_k_uses_single_weight(self):
        weights = {(0, 1): 10.0, (0, 2): 0.0, (1, 2): 0.0, (0, 3): 0.0, (1, 3): 0.0, (2, 3): 0.0}
        chosen = greedy_max_dispersion(
            [0, 1, 2, 3], 3, pair_weight_from(weights),
            single_weight=lambda v: 100.0 if v == 3 else 0.0,
        )
        assert set(chosen) >= {0, 1}
        assert 3 in chosen

    def test_odd_k_counts_pairs_to_selected(self):
        weights = {(0, 1): 10.0, (0, 2): 5.0, (1, 2): 5.0, (0, 3): 0.0, (1, 3): 0.0, (2, 3): 0.0}
        chosen = greedy_max_dispersion([0, 1, 2, 3], 3, pair_weight_from(weights))
        assert set(chosen) == {0, 1, 2}

    def test_two_rounds(self):
        weights = {}
        for i in range(5):
            for j in range(i + 1, 5):
                weights[(i, j)] = 0.0
        weights[(0, 1)] = 10.0
        weights[(2, 3)] = 9.0
        chosen = greedy_max_dispersion(list(range(5)), 4, pair_weight_from(weights))
        assert set(chosen) == {0, 1, 2, 3}

    def test_approximation_ratio_on_random_instances(self):
        import itertools
        import random

        for seed in range(10):
            rng = random.Random(seed)
            items = list(range(7))
            weights = {
                (i, j): rng.uniform(0, 1)
                for i in items
                for j in items
                if i < j
            }
            w = pair_weight_from(weights)
            k = 4
            chosen = greedy_max_dispersion(items, k, w)
            chosen_score = sum(w(a, b) for a, b in itertools.combinations(chosen, 2))
            best = max(
                sum(w(a, b) for a, b in itertools.combinations(sub, 2))
                for sub in itertools.combinations(items, k)
            )
            assert chosen_score >= best / 2 - 1e-9  # Hassin et al. ratio


def reference_greedy_max_dispersion(items, k, pair_weight, single_weight=None):
    """The greedy written directly: each round re-evaluates every pair."""
    pool = list(items)
    if k >= len(pool):
        return pool
    selected = []
    for _ in range(k // 2):
        best_pair = None
        best_score = float("-inf")
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                score = pair_weight(pool[i], pool[j])
                if score > best_score:
                    best_score = score
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        selected.append(pool.pop(j))
        selected.append(pool.pop(i))
    if len(selected) < k and pool:
        best_item_index = 0
        best_score = float("-inf")
        for index, item in enumerate(pool):
            score = single_weight(item) if single_weight is not None else 0.0
            score += sum(pair_weight(item, chosen) for chosen in selected)
            if score > best_score:
                best_score = score
                best_item_index = index
        selected.append(pool.pop(best_item_index))
    return selected


class TestAgainstReference:
    @given(data=st.data(), n=st.integers(0, 14), k=st.integers(1, 15), singles=st.booleans())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_picks_match_reference(self, data, n, k, singles):
        # Items in a drawn order, integer weights from a narrow range: ties
        # are common, so the tie-break order is exercised.
        items = data.draw(st.permutations(range(n)))
        weights = {
            (i, j): data.draw(st.integers(-2, 3)) for i in range(n) for j in range(i + 1, n)
        }
        single = None
        if singles:
            values = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            single = values.__getitem__
        w = pair_weight_from(weights)
        assert greedy_max_dispersion(items, k, w, single) == reference_greedy_max_dispersion(
            items, k, w, single
        )


class TestCost:
    @pytest.mark.parametrize("n, k", [(219, 8), (219, 7), (30, 2), (30, 3), (30, 1)])
    def test_each_pair_weight_evaluated_once(self, n, k):
        calls = 0

        def weight(a, b):
            nonlocal calls
            calls += 1
            return float((a + b) % 7 + (a * b) % 5)

        chosen = greedy_max_dispersion(list(range(n)), k, weight)
        assert len(set(chosen)) == k
        # A single pick needs no pair weights.
        assert calls == (n * (n - 1) // 2 if k >= 2 else 0)
