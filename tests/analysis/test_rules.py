"""Per-rule fixture tests: one violating snippet + its clean twin."""

from __future__ import annotations

from _fixtures import INVALIDATION_FIXTURE, check

# ----------------------------------------------------------------------
# R1 part A — digraph mutators must invalidate before emitting
# ----------------------------------------------------------------------


class TestR1Mutators:
    def test_missing_invalidate_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    class Graph:
                        def add_edge(self, u, v):
                            self._adj[u].append(v)
                            self._emit(DeltaOp(ADD_EDGE, u, v))
                """
            },
            "R1",
        )
        assert len(report.new) == 1
        assert "mutator-missing-invalidate:add_edge" in report.new[0].detail

    def test_invalidate_after_emit_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    class Graph:
                        def remove_edge(self, u, v):
                            self._adj[u].remove(v)
                            self._emit(DeltaOp(REMOVE_EDGE, u, v))
                            self._invalidate_caches()
                """
            },
            "R1",
        )
        assert len(report.new) == 1
        assert "mutator-late-invalidate:remove_edge" in report.new[0].detail

    def test_invalidate_before_emit_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    class Graph:
                        def add_edge(self, u, v):
                            self._invalidate_caches()
                            self._adj[u].append(v)
                            self._emit(DeltaOp(ADD_EDGE, u, v))
                """
            },
            "R1",
        )
        assert report.new == []

    def test_set_attrs_exempt_by_design(self, tmp_path):
        # SET_ATTRS is not structural: no invalidation required.
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    class Graph:
                        def set_attrs(self, v, **attrs):
                            self._attrs[v].update(attrs)
                            self._emit(DeltaOp(SET_ATTRS, v, attrs))
                """
            },
            "R1",
        )
        assert report.new == []


# ----------------------------------------------------------------------
# R1 part B — graph.derived writers must use registered prefixes
# ----------------------------------------------------------------------


class TestR1DerivedWriters:
    def test_unregistered_key_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/index/invalidation.py": INVALIDATION_FIXTURE,
                "src/repro/index/rogue.py": """
                    def store(graph, value):
                        graph.derived["rogue-cache:main"] = value
                """,
            },
            "R1",
        )
        assert len(report.new) == 1
        assert "derived-key-unregistered:rogue-cache:main" in report.new[0].detail

    def test_unresolvable_key_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/index/invalidation.py": INVALIDATION_FIXTURE,
                "src/repro/index/dynamic.py": """
                    def store(graph, key, value):
                        graph.derived[key] = value
                """,
            },
            "R1",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "derived-key-unresolvable"

    def test_cross_module_prefix_constant_clean(self, tmp_path):
        # The key folds through an imported constant to a registered
        # prefix — exactly how descendants.py / csr.py build theirs.
        report = check(
            tmp_path,
            {
                "src/repro/index/invalidation.py": INVALIDATION_FIXTURE,
                "src/repro/index/descendants.py": """
                    from repro.index.invalidation import DESC_PREFIX

                    KEY = DESC_PREFIX + "main"

                    def store(graph, value):
                        graph.derived[KEY] = value
                """,
            },
            "R1",
        )
        assert report.new == []

    def test_setdefault_writes_are_checked_too(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/index/invalidation.py": INVALIDATION_FIXTURE,
                "src/repro/index/lazy.py": """
                    def store(graph):
                        return graph.derived.setdefault("oops:x", {})
                """,
            },
            "R1",
        )
        assert len(report.new) == 1
        assert "derived-key-unregistered:oops:x" in report.new[0].detail

    def test_overlay_key_without_registered_prefix_flagged(self, tmp_path):
        # A snapshot-patcher caching an overlay under an unregistered
        # prefix would be invisible to wholesale invalidation sweeps.
        report = check(
            tmp_path,
            {
                "src/repro/index/invalidation.py": INVALIDATION_FIXTURE,
                "src/repro/graph/patcher.py": """
                    def cache_overlay(graph, snap):
                        graph.derived["csr-overlay:graph"] = snap
                """,
            },
            "R1",
        )
        assert len(report.new) == 1
        assert (
            "derived-key-unregistered:csr-overlay:graph"
            in report.new[0].detail
        )

    def test_overlay_key_clean_once_prefix_registered(self, tmp_path):
        # Clean twin: the registry carries the overlay prefix and the
        # writer folds it through an imported constant, like csr.py.
        registry = """
            DESC_PREFIX = "descendant-index:"
            CSR_PREFIX = "csr-snapshot:"
            OVERLAY_PREFIX = "csr-overlay:"

            STRUCTURAL_KEY_PREFIXES = (DESC_PREFIX, CSR_PREFIX, OVERLAY_PREFIX)
        """
        report = check(
            tmp_path,
            {
                "src/repro/index/invalidation.py": registry,
                "src/repro/graph/patcher.py": """
                    from repro.index.invalidation import OVERLAY_PREFIX

                    OVERLAY_KEY = OVERLAY_PREFIX + "graph"

                    def cache_overlay(graph, snap):
                        graph.derived[OVERLAY_KEY] = snap
                """,
            },
            "R1",
        )
        assert report.new == []

    def test_real_registry_covers_overlay_prefix(self):
        # The shipped registry must keep the overlay prefix registered —
        # dropping it would orphan every cached patched snapshot.
        from repro.graph.csr import CSR_OVERLAY_KEY_PREFIX
        from repro.index.invalidation import STRUCTURAL_KEY_PREFIXES

        assert CSR_OVERLAY_KEY_PREFIX in STRUCTURAL_KEY_PREFIXES


# ----------------------------------------------------------------------
# R2 — legacy toggle kwargs must funnel through ExecutionConfig.adapt
# ----------------------------------------------------------------------


class TestR2ConfigDiscipline:
    def test_loose_toggle_kwargs_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/topk/wrapper.py": """
                    def top_k(pattern, graph, k, use_csr=None, rset_bitset=None):
                        effective = True if use_csr is None else use_csr
                        return run(pattern, graph, k, effective)
                """
            },
            "R2",
        )
        assert len(report.new) == 1
        assert "legacy-kwargs:top_k:rset_bitset,use_csr" in report.new[0].detail

    def test_adapt_funnel_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/topk/wrapper.py": """
                    from repro.session.config import ExecutionConfig

                    def top_k(pattern, graph, k, use_csr=None):
                        cfg = ExecutionConfig.adapt(use_csr=use_csr)
                        return run(pattern, graph, k, cfg)
                """
            },
            "R2",
        )
        assert report.new == []

    def test_local_funnel_indirection_clean(self, tmp_path):
        # The api.py facade pattern: one module-local helper owns the
        # adapt() call; public wrappers route through it.
        report = check(
            tmp_path,
            {
                "src/repro/facade.py": """
                    from repro.session.config import ExecutionConfig

                    def _adapt(options):
                        return ExecutionConfig.adapt(**options)

                    def top_k(pattern, graph, k, use_csr=None, scc_incremental=None):
                        cfg = _adapt({"use_csr": use_csr,
                                      "scc_incremental": scc_incremental})
                        return run(pattern, graph, k, cfg)
                """
            },
            "R2",
        )
        assert report.new == []

    def test_bare_optimized_on_leaf_kernel_allowed(self, tmp_path):
        # ``optimized`` alone is the documented leaf-kernel arm selector.
        report = check(
            tmp_path,
            {
                "src/repro/simulation/kernel.py": """
                    def simulate(pattern, graph, optimized=True):
                        return _csr(pattern, graph) if optimized else _dict(pattern, graph)
                """
            },
            "R2",
        )
        assert report.new == []

    def test_optimized_next_to_config_param_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/topk/wrapper.py": """
                    def top_k(pattern, graph, k, config=None, optimized=None):
                        arm = config.optimized if config else bool(optimized)
                        return run(pattern, graph, k, arm)
                """
            },
            "R2",
        )
        assert len(report.new) == 1
        assert "legacy-kwargs:top_k:optimized" in report.new[0].detail

    def test_config_module_itself_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/config.py": """
                    class ExecutionConfig:
                        @classmethod
                        def adapt(cls, use_csr=None, rset_bitset=None):
                            return cls()
                """
            },
            "R2",
        )
        assert report.new == []


# ----------------------------------------------------------------------
# R3 — disabled observability must stay a strict no-op on hot paths
# ----------------------------------------------------------------------


class TestR3ObsNoOp:
    def test_chained_ambient_call_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/topk/hot.py": """
                    from repro.obs import current_tracer

                    def annotate(v):
                        current_tracer().event("visit", node=v)
                """
            },
            "R3",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "chained-ambient:current_tracer"

    def test_unguarded_collector_flagged_and_guard_accepted(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/metrics_use.py": """
                    from repro.obs import current_metrics

                    def bad(n):
                        registry = current_metrics()
                        registry.counter("repro_queries_total").inc(n)

                    def good(n):
                        registry = current_metrics()
                        if registry is not None:
                            registry.counter("repro_queries_total").inc(n)
                """
            },
            "R3",
        )
        assert [f.symbol for f in report.new] == ["bad"]
        assert report.new[0].detail.startswith("unguarded-collector:registry.")

    def test_unguarded_span_attr_flagged_and_guard_accepted(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/simulation/spanuse.py": """
                    from repro.obs import trace

                    def bad(rounds):
                        with trace("simulation.fixpoint") as span:
                            span.set_attr(rounds=rounds)

                    def good(rounds):
                        with trace("simulation.fixpoint") as span:
                            if span is not None:
                                span.set_attr(rounds=rounds)
                """
            },
            "R3",
        )
        assert [f.symbol for f in report.new] == ["bad"]
        assert report.new[0].detail == "unguarded-span:span.set_attr"

    def test_hook_inside_loop_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/topk/loopy.py": """
                    from repro.obs import trace

                    def run(batches):
                        for index, batch in enumerate(batches):
                            with trace("engine.batch", index=index):
                                batch.run()
                """
            },
            "R3",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "hook-in-loop:trace"

    def test_preresolved_guarded_tracer_in_loop_clean(self, tmp_path):
        # The engine.run() shape after the PR-7 fix.
        report = check(
            tmp_path,
            {
                "src/repro/topk/loopy.py": """
                    from repro.obs import current_tracer

                    def run(batches):
                        tracer = current_tracer()
                        for index, batch in enumerate(batches):
                            if tracer is not None:
                                with tracer.span("engine.batch", index=index):
                                    batch.run()
                            else:
                                batch.run()
                """
            },
            "R3",
        )
        assert report.new == []

    def test_cold_modules_out_of_scope(self, tmp_path):
        # Same pattern outside the hot-path packages: not R3's business.
        report = check(
            tmp_path,
            {
                "src/repro/viz/render.py": """
                    from repro.obs import trace

                    def render(frames):
                        for frame in frames:
                            with trace("viz.frame"):
                                frame.draw()
                """
            },
            "R3",
        )
        assert report.new == []


# ----------------------------------------------------------------------
# R5 — mutable defaults and frozen-dataclass mutation
# ----------------------------------------------------------------------

FROZEN_FIXTURE = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Spec:
        k: int = 10
"""


class TestR5FrozenAndDefaults:
    def test_mutable_default_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/util.py": """
                    def collect(values, seen=[]):
                        seen.extend(values)
                        return seen
                """
            },
            "R5",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "mutable-default:collect:seen"

    def test_none_default_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/util.py": """
                    def collect(values, seen=None):
                        seen = [] if seen is None else seen
                        seen.extend(values)
                        return seen
                """
            },
            "R5",
        )
        assert report.new == []

    def test_frozen_mutation_via_annotation_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/spec.py": FROZEN_FIXTURE,
                "src/repro/mutator.py": """
                    def widen(spec: Spec):
                        spec.k = spec.k * 2
                        return spec
                """,
            },
            "R5",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "frozen-mutation:Spec.k"

    def test_frozen_mutation_via_constructor_binding_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/spec.py": FROZEN_FIXTURE,
                "src/repro/builder.py": """
                    def build():
                        spec = Spec()
                        spec.k = 20
                        return spec
                """,
            },
            "R5",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "frozen-mutation:Spec.k"

    def test_dataclasses_replace_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/spec.py": FROZEN_FIXTURE,
                "src/repro/builder.py": """
                    from dataclasses import replace

                    def widen(spec: Spec):
                        return replace(spec, k=spec.k * 2)
                """,
            },
            "R5",
        )
        assert report.new == []

    def test_setattr_escape_outside_owner_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/spec.py": FROZEN_FIXTURE,
                "src/repro/escape.py": """
                    def sneak(spec):
                        object.__setattr__(spec, "k", 99)
                """,
            },
            "R5",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "frozen-setattr-escape"

    def test_setattr_inside_own_frozen_class_clean(self, tmp_path):
        # __post_init__-style normalisation is the sanctioned use.
        report = check(
            tmp_path,
            {
                "src/repro/spec.py": """
                    from dataclasses import dataclass

                    @dataclass(frozen=True)
                    class Spec:
                        k: int = 10

                        def __post_init__(self):
                            object.__setattr__(self, "k", max(1, self.k))
                """
            },
            "R5",
        )
        assert report.new == []


# ----------------------------------------------------------------------
# R6 — typed-core annotation coverage
# ----------------------------------------------------------------------


class TestR6TypedCore:
    def test_unannotated_core_function_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/helper.py": """
                    def merge(primary, extra=None, **options):
                        return {**primary, **(extra or {}), **options}
                """
            },
            "R6",
        )
        assert len(report.new) == 1
        assert (
            report.new[0].detail
            == "missing-annotations:merge:primary,extra,**options,return"
        )

    def test_fully_annotated_core_function_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/helper.py": """
                    from typing import Any

                    def merge(
                        primary: dict[str, Any],
                        extra: dict[str, Any] | None = None,
                        **options: Any,
                    ) -> dict[str, Any]:
                        return {**primary, **(extra or {}), **options}
                """
            },
            "R6",
        )
        assert report.new == []

    def test_self_and_cls_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/obs/thing.py": """
                    class Thing:
                        def size(self) -> int:
                            return 0

                        @classmethod
                        def empty(cls) -> "Thing":
                            return cls()
                """
            },
            "R6",
        )
        assert report.new == []

    def test_modules_outside_typed_core_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/workloads/gen.py": """
                    def generate(seed, size):
                        return [seed] * size
                """
            },
            "R6",
        )
        assert report.new == []

# ----------------------------------------------------------------------
# R7 — pickle/spawn safety
# ----------------------------------------------------------------------


class TestR7TransientSlots:
    def test_risky_slot_missing_from_transient_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/csr.py": """
                    class CSRSnapshot:
                        __slots__ = ("indptr", "_neigh_cache", "_shard_lock")
                        _TRANSIENT_SLOTS = ("_neigh_cache",)

                        def __getstate__(self):
                            return {
                                slot: getattr(self, slot)
                                for slot in self.__slots__
                                if slot not in self._TRANSIENT_SLOTS
                            }
                """
            },
            "R7",
        )
        assert len(report.new) == 1
        assert (
            report.new[0].detail
            == "pickled-risky-slot:CSRSnapshot._shard_lock"
        )

    def test_complete_transient_list_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/csr.py": """
                    class CSRSnapshot:
                        __slots__ = ("indptr", "_neigh_cache", "_shard_lock")
                        _TRANSIENT_SLOTS = ("_neigh_cache", "_shard_lock")

                        def __getstate__(self):
                            return {
                                slot: getattr(self, slot)
                                for slot in self.__slots__
                                if slot not in self._TRANSIENT_SLOTS
                            }
                """
            },
            "R7",
        )
        assert report.new == []

    def test_transient_resolved_through_base_concatenation(self, tmp_path):
        # PatchedCSRSnapshot inherits the transient list and extends it:
        # the analyzer must fold Base._TRANSIENT_SLOTS + (...) instead of
        # flagging the subclass's own risky slot.
        report = check(
            tmp_path,
            {
                "src/repro/graph/csr.py": """
                    class CSRSnapshot:
                        __slots__ = ("indptr", "_shard_lock")
                        _TRANSIENT_SLOTS = ("_shard_lock",)

                        def __getstate__(self):
                            return {}


                    class PatchedCSRSnapshot(CSRSnapshot):
                        __slots__ = ("_base", "_overlay_cache")
                        _TRANSIENT_SLOTS = CSRSnapshot._TRANSIENT_SLOTS + (
                            "_overlay_cache",
                        )
                """
            },
            "R7",
        )
        assert report.new == []

    def test_inherited_getstate_still_checks_subclass_slots(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/csr.py": """
                    class CSRSnapshot:
                        __slots__ = ("indptr",)
                        _TRANSIENT_SLOTS = ()

                        def __getstate__(self):
                            return {}


                    class PatchedCSRSnapshot(CSRSnapshot):
                        __slots__ = ("_overlay_cache",)
                """
            },
            "R7",
        )
        assert len(report.new) == 1
        assert "_overlay_cache" in report.new[0].detail


class TestR7DictState:
    def test_undropped_lock_attr_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    import threading

                    class Graph:
                        def __init__(self):
                            self._adj = {}
                            self._mutex = threading.Lock()

                        def __getstate__(self):
                            return dict(self.__dict__)
                """
            },
            "R7",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "pickled-risky-attr:Graph._mutex"

    def test_getstate_popping_the_attr_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    import threading

                    class Graph:
                        def __init__(self):
                            self._adj = {}
                            self._mutex = threading.Lock()

                        def __getstate__(self):
                            state = dict(self.__dict__)
                            state.pop("_mutex")
                            return state
                """
            },
            "R7",
        )
        assert report.new == []

    def test_class_without_getstate_exempt(self, tmp_path):
        # Never shipped by value: holding a lock is fine.
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    import threading

                    class Graph:
                        def __init__(self):
                            self._mutex = threading.Lock()
                """
            },
            "R7",
        )
        assert report.new == []


class TestR7PoolPayloads:
    def test_lambda_submitted_to_pool_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/tasks.py": """
                    def dispatch(pool, items):
                        return pool.submit(lambda: len(items))
                """
            },
            "R7",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "lambda-to-pool:submit"

    def test_local_function_mapped_over_pool_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/tasks.py": """
                    def dispatch(executor, items):
                        def work(item):
                            return item * 2

                        return list(executor.map(work, items))
                """
            },
            "R7",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "local-def-to-pool:work"

    def test_module_level_payload_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/tasks.py": """
                    def work(item):
                        return item * 2


                    def dispatch(pool, items):
                        return list(pool.map(work, items))
                """
            },
            "R7",
        )
        assert report.new == []

    def test_nonmodule_initializer_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/tasks.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    def start(payload):
                        def seed():
                            return payload

                        return ProcessPoolExecutor(max_workers=2, initializer=seed)
                """
            },
            "R7",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "nonmodule-initializer"


# ----------------------------------------------------------------------
# R8 — lock discipline
# ----------------------------------------------------------------------


class TestR8LockDiscipline:
    def test_unguarded_registry_mutation_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/pools.py": """
                    import threading

                    _POOLS = {}
                    _POOLS_LOCK = threading.Lock()

                    def get_pool(workers):
                        with _POOLS_LOCK:
                            pool = _POOLS.get(workers)
                            if pool is None:
                                pool = object()
                                _POOLS[workers] = pool
                        return pool

                    def drop_pool(workers):
                        _POOLS.pop(workers, None)
                """
            },
            "R8",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "unguarded-mutation:global:_POOLS"

    def test_consistently_guarded_registry_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/pools.py": """
                    import threading

                    _POOLS = {}
                    _POOLS_LOCK = threading.Lock()

                    def get_pool(workers):
                        with _POOLS_LOCK:
                            pool = _POOLS.get(workers)
                            if pool is None:
                                pool = object()
                                _POOLS[workers] = pool
                        return pool

                    def drop_pool(workers):
                        with _POOLS_LOCK:
                            _POOLS.pop(workers, None)
                """
            },
            "R8",
        )
        assert report.new == []

    def test_unguarded_attr_mutation_next_to_guarded_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/obs/registry.py": """
                    import threading

                    class Registry:
                        def __init__(self):
                            self._series = {}
                            self._lock = threading.Lock()

                        def observe(self, name, value):
                            with self._lock:
                                self._series.setdefault(name, []).append(value)

                        def reset(self, name):
                            self._series[name] = []
                """
            },
            "R8",
        )
        assert any(
            finding.detail == "unguarded-mutation:attr:_series"
            and finding.symbol == "Registry.reset"
            for finding in report.new
        )

    def test_locked_suffix_helper_is_callee_guarded(self, tmp_path):
        # *_locked names promise the caller holds the lock: their
        # mutations count as guarded, and calling them under the lock
        # keeps the whole module consistent.
        report = check(
            tmp_path,
            {
                "src/repro/session/pool.py": """
                    import threading

                    class Session:
                        def __init__(self):
                            self._pool = None
                            self._lock = threading.Lock()

                        def drop(self):
                            with self._lock:
                                self._drop_locked()

                        def _drop_locked(self):
                            self._pool = None

                        def replace(self, pool):
                            with self._lock:
                                self._pool = pool
                """
            },
            "R8",
        )
        assert report.new == []

    def test_never_guarded_attr_not_flagged(self, tmp_path):
        # Lockset-lite: an attribute nobody guards carries no evidence
        # of a locking convention, so nothing fires.
        report = check(
            tmp_path,
            {
                "src/repro/session/notes.py": """
                    class Notes:
                        def __init__(self):
                            self._entries = []

                        def add(self, entry):
                            self._entries.append(entry)
                """
            },
            "R8",
        )
        assert report.new == []

    def test_outside_concurrency_packages_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/workloads/state.py": """
                    import threading

                    _STATE = {}
                    _STATE_LOCK = threading.Lock()

                    def set_guarded(key, value):
                        with _STATE_LOCK:
                            _STATE[key] = value

                    def set_unguarded(key, value):
                        _STATE[key] = value
                """
            },
            "R8",
        )
        assert report.new == []


# ----------------------------------------------------------------------
# R9 — token-key soundness
# ----------------------------------------------------------------------


class TestR9TokenKeys:
    def test_raw_snapshot_in_key_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/cache.py": """
                    class SessionCache:
                        def bucket(self, snapshot, label):
                            key = ("bucket", snapshot, label)
                            return self._store.get(key)
                """
            },
            "R9",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "tokenless-snapshot-key:snapshot"

    def test_identityish_wrapper_still_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/cache.py": """
                    class SessionCache:
                        def bucket(self, snapshot, label):
                            key = ("bucket", id(snapshot), label)
                            return self._store.get(key)
                """
            },
            "R9",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "tokenless-snapshot-key:snapshot"

    def test_bucket_token_key_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/cache.py": """
                    class SessionCache:
                        def bucket(self, snapshot, label):
                            key = ("bucket", snapshot.bucket_token(label), label)
                            return self._store.get(key)
                """
            },
            "R9",
        )
        assert report.new == []

    def test_self_key_inside_snapshot_class_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/csr.py": """
                    class CSRSnapshot:
                        def _runner_key(self, num_shards):
                            return ("runner", self, num_shards)
                """
            },
            "R9",
        )
        assert len(report.new) == 1
        assert report.new[0].detail == "tokenless-snapshot-key:self"

    def test_generation_counter_key_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/cache.py": """
                    class SessionCache:
                        def artifact(self, snapshot, name):
                            key = (name, snapshot.generation)
                            return self._store.get(key)
                """
            },
            "R9",
        )
        assert report.new == []

    def test_non_key_tuple_with_snapshot_clean(self, tmp_path):
        # A plain value tuple (not a key context) may carry the
        # snapshot freely.
        report = check(
            tmp_path,
            {
                "src/repro/session/cache.py": """
                    class SessionCache:
                        def pair(self, snapshot, label):
                            return (snapshot, label)
                """
            },
            "R9",
        )
        assert report.new == []

    def test_outside_token_key_modules_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/workloads/memo.py": """
                    def memo_key(snapshot, label):
                        key = ("memo", snapshot, label)
                        return key
                """
            },
            "R9",
        )
        assert report.new == []


# ----------------------------------------------------------------------
# R10 — toggle-oracle parity
# ----------------------------------------------------------------------

R10_CONFIG = """
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class ExecutionConfig:
        use_fast: bool = True
"""

R10_ENGINE_BRANCHING = """
    def run(graph, config):
        if config.use_fast:
            return fast(graph)
        return reference(graph)
"""

R10_TEST_SUITE = """
    def test_use_fast_matches_reference():
        assert run(g, cfg(use_fast=True)) == run(g, cfg(use_fast=False))
"""


class TestR10ToggleParity:
    def test_toggle_without_branch_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/config.py": R10_CONFIG,
                "src/repro/topk/engine.py": """
                    def run(graph, config):
                        return reference(graph)
                """,
                "tests/test_engine.py": R10_TEST_SUITE,
            },
            "R10",
        )
        assert [finding.detail for finding in report.new] == [
            "toggle-without-branch:use_fast"
        ]

    def test_toggle_without_test_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/config.py": R10_CONFIG,
                "src/repro/topk/engine.py": R10_ENGINE_BRANCHING,
                "tests/test_engine.py": """
                    def test_something_else():
                        assert True
                """,
            },
            "R10",
        )
        assert [finding.detail for finding in report.new] == [
            "toggle-without-test:use_fast"
        ]

    def test_branched_and_tested_toggle_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/config.py": R10_CONFIG,
                "src/repro/topk/engine.py": R10_ENGINE_BRANCHING,
                "tests/test_engine.py": R10_TEST_SUITE,
            },
            "R10",
        )
        assert report.new == []

    def test_kwarg_alias_hop_counts_as_branch(self, tmp_path):
        # workers never appears by name in a boolean context: it is
        # renamed through `pool_size=config.workers` into the runner's
        # `if pool_size > 1` guard.  The one-hop alias must satisfy (a).
        files = {
            "src/repro/session/config.py": """
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class ExecutionConfig:
                    workers: int = 0
            """,
            "src/repro/session/session.py": """
                def dispatch(batch, config):
                    return run(batch, pool_size=config.workers)
            """,
            "src/repro/session/runner.py": """
                def run(batch, pool_size=0):
                    if pool_size > 1:
                        return pooled(batch, pool_size)
                    return serial(batch)
            """,
            "tests/test_runner.py": """
                def test_workers_match_serial():
                    cfg = ExecutionConfig(workers=2)
                    assert dispatch(b, cfg) == run(b)
            """,
        }
        assert check(tmp_path / "aliased", files, "R10").new == []
        # Without the guard the toggle is flagged, so the hop is what
        # satisfies (a) above.
        files["src/repro/session/runner.py"] = """
            def run(batch, pool_size=0):
                return serial(batch)
        """
        report = check(tmp_path / "unguarded", files, "R10")
        assert [finding.detail for finding in report.new] == [
            "toggle-without-branch:workers"
        ]

    def test_defaulting_branch_in_config_does_not_count(self, tmp_path):
        # resolved()'s own defaulting logic branches on every field; it
        # must not satisfy the serial-arm requirement.
        report = check(
            tmp_path,
            {
                "src/repro/session/config.py": """
                    from dataclasses import dataclass


                    @dataclass(frozen=True)
                    class ExecutionConfig:
                        use_fast: bool = True

                        def resolved(self):
                            if self.use_fast:
                                return self
                            return self
                """,
                "tests/test_config.py": """
                    def test_use_fast():
                        assert ExecutionConfig(use_fast=True)
                """,
            },
            "R10",
        )
        assert [finding.detail for finding in report.new] == [
            "toggle-without-branch:use_fast"
        ]

    def test_non_toggle_fields_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/session/config.py": """
                    from dataclasses import dataclass


                    @dataclass(frozen=True)
                    class ExecutionConfig:
                        batch_label: str = "default"
                """,
            },
            "R10",
        )
        assert report.new == []
