"""Slow-query log: the config threshold and the emitted WARNING line."""

from __future__ import annotations

import logging

import pytest

from repro.errors import MatchingError
from repro.obs import maybe_log_slow_query
from repro.session.config import ExecutionConfig
from tests.conftest import make_random_pattern


@pytest.fixture()
def pattern():
    return make_random_pattern(0, num_nodes=4, extra_edges=2)


class TestThresholdResolution:
    def test_off_by_default(self, pattern, caplog):
        assert ExecutionConfig().slow_query_seconds is None
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            assert maybe_log_slow_query("TopK", pattern, 10, 100.0, ExecutionConfig()) is False
        assert not caplog.records

    def test_config_rejects_non_positive_threshold(self):
        with pytest.raises(MatchingError, match="slow_query_seconds"):
            ExecutionConfig(slow_query_seconds=0.0)
        with pytest.raises(MatchingError, match="slow_query_seconds"):
            ExecutionConfig(slow_query_seconds=-1.0)


class TestLogging:
    def test_breach_emits_one_warning(self, pattern, caplog):
        config = ExecutionConfig(slow_query_seconds=0.1)
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            emitted = maybe_log_slow_query("TopK", pattern, 10, 0.25, config)
        assert emitted is True
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "slow query" in message
        assert "TopK" in message and "k=10" in message
        shape = pattern.shape
        assert f"|Q|=({shape[0]},{shape[1]})" in message

    def test_below_threshold_is_silent(self, pattern, caplog):
        config = ExecutionConfig(slow_query_seconds=1.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            emitted = maybe_log_slow_query("TopK", pattern, 10, 0.25, config)
        assert emitted is False
        assert not caplog.records

    def test_no_threshold_is_silent(self, pattern, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            assert maybe_log_slow_query("TopK", pattern, 10, 100.0) is False
        assert not caplog.records
