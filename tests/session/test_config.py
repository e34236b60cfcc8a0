"""ExecutionConfig: its fields, validation and the keyword adapter."""

import dataclasses

import pytest

from repro.errors import MatchingError
from repro.session import ExecutionConfig


class TestValidation:
    def test_fields(self):
        assert [field.name for field in dataclasses.fields(ExecutionConfig)] == [
            "optimized",
            "seed",
            "trace",
            "metrics",
            "slow_query_seconds",
            "workers",
            "snapshot_patching",
        ]

    def test_frozen(self):
        cfg = ExecutionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.optimized = False


class TestAdapter:
    def test_legacy_kwargs_build_equivalent_config(self):
        cfg = ExecutionConfig.adapt(None, optimized=False, seed=9)
        assert cfg == ExecutionConfig(optimized=False, seed=9)

    def test_config_wins(self):
        explicit = ExecutionConfig(optimized=False)
        assert ExecutionConfig.adapt(explicit, optimized=True) is explicit

    def test_mixing_config_and_legacy_toggles_rejected(self):
        with pytest.raises(MatchingError):
            ExecutionConfig.adapt(ExecutionConfig(), optimized=False)

    def test_mixing_config_and_other_legacy_kwargs_rejected(self):
        # Non-toggle legacy kwargs must not be silently discarded either.
        with pytest.raises(MatchingError):
            ExecutionConfig.adapt(ExecutionConfig(), seed=3)

    def test_config_with_default_valued_kwargs_is_fine(self):
        explicit = ExecutionConfig(optimized=False)
        assert ExecutionConfig.adapt(explicit, optimized=True, seed=0) is explicit
