"""EngineStats aggregation: as_dict flattening and merge semantics."""

from __future__ import annotations

from dataclasses import fields

from repro.topk.result import EngineStats


class TestAsDict:
    def test_covers_every_field(self):
        stats = EngineStats(batches=3, elapsed_seconds=0.5)
        payload = stats.as_dict()
        assert set(payload) == {f.name for f in fields(EngineStats)}
        assert payload["batches"] == 3
        assert payload["elapsed_seconds"] == 0.5
        assert payload["total_matches"] is None

    def test_is_a_snapshot_not_a_view(self):
        stats = EngineStats()
        payload = stats.as_dict()
        stats.batches = 9
        assert payload["batches"] == 0


class TestMerge:
    def test_integer_counters_add(self):
        a = EngineStats(batches=2, deltas_applied=5, pairs_created=1)
        b = EngineStats(batches=3, deltas_applied=7, paircsr_hits=4)
        merged = a.merge(b)
        assert merged is a
        assert a.batches == 5
        assert a.deltas_applied == 12
        assert a.pairs_created == 1
        assert a.paircsr_hits == 4

    def test_elapsed_adds_and_terminated_early_ors(self):
        a = EngineStats(elapsed_seconds=0.25, terminated_early=False)
        a.merge(EngineStats(elapsed_seconds=0.5, terminated_early=True))
        assert a.elapsed_seconds == 0.75
        assert a.terminated_early is True
        a.merge(EngineStats(terminated_early=False))
        assert a.terminated_early is True  # never un-sets

    def test_total_matches_adds_when_both_known(self):
        a = EngineStats(total_matches=10)
        a.merge(EngineStats(total_matches=5))
        assert a.total_matches == 15

    def test_unknown_total_matches_poisons_the_sum(self):
        a = EngineStats(total_matches=10)
        a.merge(EngineStats(total_matches=None))
        assert a.total_matches is None
        # ...and stays poisoned even when later runs know theirs.
        a.merge(EngineStats(total_matches=3))
        assert a.total_matches is None

    def test_merge_accumulates_across_many_runs(self):
        total = EngineStats()
        for i in range(4):
            total.merge(EngineStats(inspected_matches=i, elapsed_seconds=0.1))
        assert total.inspected_matches == 0 + 1 + 2 + 3
        assert round(total.elapsed_seconds, 6) == 0.4
