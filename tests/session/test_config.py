"""ExecutionConfig: the single home of the toggle-default chain."""

import dataclasses

import pytest

from repro.errors import MatchingError
from repro.session import ExecutionConfig


class TestDefaulting:
    def test_all_defaults_resolve_to_fast_paths(self):
        cfg = ExecutionConfig().resolved()
        assert cfg.use_csr is True

    def test_optimized_false_resolves_reference_arm(self):
        cfg = ExecutionConfig(optimized=False).resolved()
        assert cfg.use_csr is False

    def test_explicit_toggle_overrides_chain(self):
        assert ExecutionConfig(use_csr=False).resolved().use_csr is False
        cfg = ExecutionConfig(optimized=False, use_csr=True).resolved()
        assert cfg.use_csr is True

    def test_resolved_is_idempotent(self):
        cfg = ExecutionConfig(optimized=False, use_csr=True).resolved()
        assert cfg.resolved() is cfg

    def test_resolution_preserves_non_toggle_fields(self):
        cfg = ExecutionConfig(seed=3, workers=2).resolved()
        assert cfg.seed == 3
        assert cfg.workers == 2


class TestValidation:
    def test_frozen(self):
        cfg = ExecutionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.use_csr = False


class TestAdapter:
    def test_legacy_kwargs_build_equivalent_config(self):
        cfg = ExecutionConfig.adapt(None, optimized=False, use_csr=True, seed=9)
        assert cfg == ExecutionConfig(optimized=False, use_csr=True, seed=9)

    def test_config_wins(self):
        explicit = ExecutionConfig(optimized=False)
        assert ExecutionConfig.adapt(explicit, optimized=True) is explicit

    def test_mixing_config_and_legacy_toggles_rejected(self):
        with pytest.raises(MatchingError):
            ExecutionConfig.adapt(ExecutionConfig(), use_csr=False)

    def test_mixing_config_and_other_legacy_kwargs_rejected(self):
        # Non-toggle legacy kwargs must not be silently discarded either.
        with pytest.raises(MatchingError):
            ExecutionConfig.adapt(ExecutionConfig(), optimized=False)
        with pytest.raises(MatchingError):
            ExecutionConfig.adapt(ExecutionConfig(), seed=3)

    def test_config_with_default_valued_kwargs_is_fine(self):
        explicit = ExecutionConfig(optimized=False)
        assert ExecutionConfig.adapt(explicit, optimized=True, seed=0) is explicit
