"""Outside-in span tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each layer where callers
look them up: class attributes, and every ``repro`` module global bound
to the function (``from ... import`` copies included), so no call is
missed.  Spans stay in memory as ``(name, start, end, parent, request)``
and are written out when the run ends.  A span's self time is its
duration minus its direct children's; the self times of all spans of a
request therefore add up to the request's wall time.

Pool workers are separate processes and are not traced; their share
comes from the ``WorkerBatchStats`` each dispatch returns.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: ``(span name, module, attribute)``: the calls timed per layer.
ENTRY_POINTS = (
    ("topk.run", "repro.topk.engine", "TopKEngine.run"),
    ("topk.init", "repro.topk.engine", "TopKEngine.__init__"),
    ("topk.match_all", "repro.topk.match_all", "match_baseline"),
    ("simulation.candidates", "repro.simulation.candidates", "compute_candidates"),
    ("simulation.fixpoint", "repro.simulation.match", "maximal_simulation"),
    ("simulation.relevant_sets", "repro.simulation.relevant", "relevant_sets"),
    ("index.bounds", "repro.index.label_index", "SimBoundIndex.__init__"),
    ("diversify.heuristic", "repro.diversify.heuristic", "top_k_diversified_heuristic"),
    ("diversify.approx", "repro.diversify.approx", "top_k_diversified_approx"),
    ("diversify.max_dispersion", "repro.diversify.maxdisp", "greedy_max_dispersion"),
    ("session.run_batch", "repro.session.session", "MatchSession.run_batch"),
    ("session.refresh", "repro.session.session", "MatchSession.refresh"),
    ("session.cache.pair_csr", "repro.session.cache", "SessionCache.pair_csr"),
    ("session.parallel.pool_init", "repro.session.parallel", "WorkerPool.__init__"),
    ("session.parallel.dispatch", "repro.session.parallel", "WorkerPool.run"),
    ("graph.load", "repro.graph.io", "load_json"),
    ("graph.snapshot_compile", "repro.graph.csr", "CSRSnapshot.build"),
    ("graph.snapshot_patch", "repro.graph.csr", "SnapshotPatcher.build"),
    ("graph.apply_delta", "repro.graph.digraph", "Graph.apply_delta"),
    ("api.top_k_matches", "repro.api", "top_k_matches"),
    ("api.baseline_matches", "repro.api", "baseline_matches"),
    ("api.diversified_matches", "repro.api", "diversified_matches"),
    ("api.top_k_matches_multi", "repro.api", "top_k_matches_multi"),
)

#: Spans the benchmark itself opens around setup, requests and teardown.
ROOT_SPANS = ("bench.setup", "bench.request", "bench.teardown")

CACHE_ARTIFACTS = ("candidates", "sim", "bounds", "paircsr", "context", "result")
CACHE_COUNTERS = tuple(
    f"{artifact}_{outcome}" for artifact in CACHE_ARTIFACTS for outcome in ("hits", "builds")
) + (
    "selective_refreshes", "wholesale_refreshes",
    "artifacts_survived", "artifacts_dropped",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: int, request: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


class SpanTracer:
    """Records spans around the wrapped entry points while ``active``.

    Only the main thread records; the program runs no traced code on
    other threads.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._main = threading.get_ident()
        self.cache_stats = dict.fromkeys(CACHE_COUNTERS, 0)
        #: Per pool: construction start, and end of its first dispatch.
        self.pool_starts: dict[int, list[float]] = {}
        #: Per dispatch: (duration, busy seconds per worker, pool size).
        self.dispatches: list[tuple[float, list[float], int]] = []
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0
        self._gc_explicit = False

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self.request))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = perf_counter()

    @contextmanager
    def root(self, name: str, request: int = -1) -> Iterator[None]:
        """A benchmark-level span: setup, one request, or teardown."""
        self.request = request
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run benchmark bookkeeping without recording spans or GC."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextmanager
    def explicit_gc(self) -> Iterator[None]:
        self._gc_explicit = True
        try:
            yield
        finally:
            self._gc_explicit = False

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._observe(name, index, args, result)
            return result

        return traced

    def _observe(self, name: str, index: int, args: tuple, result: Any) -> None:
        span = self.spans[index]
        if name == "session.parallel.pool_init":
            self.pool_starts[id(args[0])] = [span.start, 0.0]
        elif name == "session.parallel.dispatch":
            pool = args[0]
            start = self.pool_starts.get(id(pool))
            if start is not None and not start[1]:
                start[1] = span.end
            busy = [stats.elapsed_seconds for stats in result[1]]
            self.dispatches.append((span.duration, busy, pool.workers))

    def _close_session(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``MatchSession.close``: fold the session's cache counters in,
        including the implicit sessions of one-shot ``api`` calls."""
        tracer = self

        @functools.wraps(fn)
        def close(session: Any) -> Any:
            if tracer.active and not session._closed:
                stats = session.cache_stats()
                for key in CACHE_COUNTERS:
                    tracer.cache_stats[key] += stats[key]
            return fn(session)

        return close

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active or self._gc_explicit:
            return
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pause += perf_counter() - self._gc_started
            self.gc_collections += 1

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for name, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, member = attr.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[member]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                self._set(owner, member, wrapped)
            else:
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "repro":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        from repro.session.session import MatchSession

        self._set(MatchSession, "close", self._close_session(MatchSession.close))
        gc.callbacks.append(self._on_gc)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results ---------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer, call counts and the pool's accounting."""
        own = self_times(self.spans)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, seconds in zip(self.spans, own):
            total[span.name] = total.get(span.name, 0.0) + seconds
            calls[span.name] = calls.get(span.name, 0) + 1

        def t(*names: str) -> float:
            return sum(total.get(n, 0.0) for n in names)

        def n(name: str) -> int:
            return calls.get(name, 0)

        wall = sum(span.duration for span in self.spans if span.parent < 0)
        metrics: dict[str, float] = {
            "topk.run_self_s": t("topk.run"),
            "topk.init_self_s": t("topk.init"),
            "topk.match_all_self_s": t("topk.match_all"),
            "simulation.candidates_s": t("simulation.candidates"),
            "simulation.fixpoint_s": t("simulation.fixpoint"),
            "simulation.fixpoints": n("simulation.fixpoint"),
            "simulation.relevant_sets_s": t("simulation.relevant_sets"),
            "index.bounds_s": t("index.bounds"),
            "diversify.self_s": t("diversify.heuristic", "diversify.approx"),
            "diversify.max_dispersion_s": t("diversify.max_dispersion"),
            "session.run_batch_self_s": t("session.run_batch"),
            "session.cache.paircsr_s": t("session.cache.pair_csr"),
            "session.refresh_s": t("session.refresh"),
            "graph.load_s": t("graph.load"),
            "graph.snapshot_compile_s": t("graph.snapshot_compile"),
            "graph.snapshot_compiles": n("graph.snapshot_compile"),
            "graph.snapshot_patch_s": t("graph.snapshot_patch"),
            "graph.snapshot_patches": n("graph.snapshot_patch"),
            "graph.apply_delta_s": t("graph.apply_delta"),
            "api.self_s": sum(v for k, v in total.items() if k.startswith("api.")),
            "gc.pause_s": self.gc_pause,
            "gc.collections": self.gc_collections,
            "trace.wall_s": wall,
            "trace.unattributed_s": t(*ROOT_SPANS),
        }
        metrics.update(self._pool_metrics())
        metrics.update(self._cache_metrics())
        return metrics

    def _pool_metrics(self) -> dict[str, float]:
        start = sum(end - begin for begin, end in self.pool_starts.values() if end)
        dispatch = sum(duration for duration, _, _ in self.dispatches)
        busy = sum(sum(b) for _, b, _ in self.dispatches)
        wait = sum(duration - max(b, default=0.0) for duration, b, _ in self.dispatches)
        ratios = [
            max(b) / (sum(b) / size)
            for _, b, size in self.dispatches
            if b and sum(b) > 0
        ]
        return {
            "session.parallel.start_s": start,
            "session.parallel.dispatch_s": dispatch,
            "session.parallel.worker_busy_s": busy,
            "session.parallel.parent_wait_s": wait,
            "session.parallel.imbalance": sum(ratios) / len(ratios) if ratios else 0.0,
        }

    def _cache_metrics(self) -> dict[str, float]:
        stats = self.cache_stats
        metrics: dict[str, float] = {
            f"session.cache.{key}": stats[key]
            for key in CACHE_COUNTERS[: 2 * len(CACHE_ARTIFACTS)]
        }
        hits = sum(stats[f"{a}_hits"] for a in CACHE_ARTIFACTS)
        builds = sum(stats[f"{a}_builds"] for a in CACHE_ARTIFACTS)
        survived, dropped = stats["artifacts_survived"], stats["artifacts_dropped"]
        metrics.update({
            "session.cache.hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
            "session.artifacts_survived": survived,
            "session.artifacts_dropped": dropped,
            "session.survival_ratio": (
                survived / (survived + dropped) if survived + dropped else 0.0
            ),
            "session.refreshes_selective": stats["selective_refreshes"],
            "session.refreshes_wholesale": stats["wholesale_refreshes"],
        })
        return metrics

    def write(self, path: Path) -> None:
        """The spans as JSON lines: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "request": span.request,
                }) + "\n")
