"""Per-rule fixture tests: one violating snippet + its clean twin."""

from __future__ import annotations

from _fixtures import check

# ----------------------------------------------------------------------
# R1 — digraph mutators must invalidate before emitting
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

    def test_listener_guarded_emit_still_checked(self, tmp_path):
        # An emit nested under ``if self._listeners:`` is still the
        # mutator's structural emit.
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    class Graph:
                        def add_edge(self, u, v):
                            self._adj[u].append(v)
                            if self._listeners:
                                self._emit(DeltaOp(ADD_EDGE, u, v))
                """
            },
            "R1",
        )
        assert len(report.new) == 1
        assert "mutator-missing-invalidate:add_edge" in report.new[0].detail

    def test_listener_guarded_emit_after_invalidate_clean(self, tmp_path):
        report = check(
            tmp_path,
            {
                "src/repro/graph/digraph.py": """
                    class Graph:
                        def add_edge(self, u, v):
                            self._invalidate_caches()
                            self._adj[u].append(v)
                            if self._listeners:
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
# R5 — no mutable default arguments
# ----------------------------------------------------------------------


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
