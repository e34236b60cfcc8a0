"""ExecutionConfig: its fields, validation and the keyword adapter."""

import dataclasses

import pytest

from repro import api
from repro.diversify.heuristic import top_k_diversified_heuristic
from repro.errors import MatchingError
from repro.session import ExecutionConfig
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag


class TestValidation:
    def test_fields(self):
        assert [field.name for field in dataclasses.fields(ExecutionConfig)] == [
            "optimized",
            "seed",
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


#: Every public wrapper taking both ``optimized=`` and ``config=``.  Each
#: runs Example 7's DAG pattern Q1 on the Figure 1 graph, so top_k_dag
#: reaches its keyword handling instead of rejecting a cyclic pattern.
WRAPPERS = {
    "top_k": lambda q, g, **kw: top_k(q, g, 2, **kw),
    "top_k_dag": lambda q, g, **kw: top_k_dag(q, g, 2, **kw),
    "top_k_diversified_heuristic": (
        lambda q, g, **kw: top_k_diversified_heuristic(q, g, 2, **kw)
    ),
    "api.top_k_matches": lambda q, g, **kw: api.top_k_matches(q, g, 2, **kw),
    "api.diversified_matches.heuristic": (
        lambda q, g, **kw: api.diversified_matches(q, g, 2, **kw)
    ),
    "api.diversified_matches.approx": (
        lambda q, g, **kw: api.diversified_matches(q, g, 2, method="approx", **kw)
    ),
    "api.top_k_matches_multi": (
        lambda q, g, **kw: api.top_k_matches_multi(q, g, 2, **kw)
    ),
}


class TestWrappersFunnelThroughAdapt:
    """Each wrapper hands its kwargs to ``ExecutionConfig.adapt``."""

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_config_alone_runs(self, wrapper, fig1, q1_dag):
        WRAPPERS[wrapper](q1_dag, fig1.graph, config=ExecutionConfig())

    @pytest.mark.parametrize(
        "kwarg", [{"optimized": False}, {"seed": 3}], ids=["optimized", "seed"]
    )
    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_config_plus_kwarg_rejected(self, wrapper, kwarg, fig1, q1_dag):
        with pytest.raises(MatchingError, match="not both"):
            WRAPPERS[wrapper](
                q1_dag, fig1.graph, config=ExecutionConfig(), **kwarg
            )

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_retired_toggle_is_a_type_error(self, wrapper, fig1, q1_dag):
        with pytest.raises(TypeError, match="use_csr"):
            WRAPPERS[wrapper](q1_dag, fig1.graph, use_csr=False)
