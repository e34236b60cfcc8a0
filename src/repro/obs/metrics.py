"""A zero-dependency metrics registry: counters and histograms.

Modelled on the Prometheus client data model, small enough to live in
the repo: a :class:`MetricsRegistry` owns named metrics, each metric
owns one time series per label set, and two exporters turn the registry
into a JSON dict (:meth:`MetricsRegistry.as_dict`) or Prometheus text
exposition format (:meth:`MetricsRegistry.render_prometheus`).

Like the tracer, the registry reaches instrumentation sites ambiently:
:func:`use_metrics` installs one on a contextvar, sites consult
:func:`current_metrics` (``None`` → skip, one contextvar read), so the
engine and caches report without parameter plumbing and the disabled
path stays unmeasurable.

>>> registry = MetricsRegistry()
>>> with use_metrics(registry):
...     m = current_metrics()
...     m.counter("repro_queries_total", "queries served").inc(1, mode="topk")
>>> registry.value("repro_queries_total", mode="topk")
1.0
"""

from __future__ import annotations

import json
import math
import threading
from contextvars import ContextVar
from types import TracebackType
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import MatchingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topk.result import EngineStats

_METRICS: ContextVar["MetricsRegistry | None"] = ContextVar(
    "repro_metrics", default=None
)

#: Default histogram buckets — serving latencies in seconds, from 100µs
#: to 30s (the paper's workloads span exactly this range bench-scale to
#: full surrogates).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


class _Metric:
    """Base: one named metric owning a series per label set.

    Updates are thread-safe: every mutator takes the metric's lock —
    the serving pool's result-merge path and sessions on other threads
    may increment one registry concurrently, and the read-modify-write
    cycles below would otherwise lose updates.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def samples(self) -> Iterator[tuple[dict[str, str], Any]]:  # pragma: no cover
        raise NotImplementedError

    def as_dict(self) -> dict[str, Any]:  # pragma: no cover
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise MatchingError(f"counter {self.name} cannot decrease (got {value})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        for key, value in sorted(self._values.items()):
            yield dict(key), value

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [
                {"labels": labels, "value": value}
                for labels, value in self.samples()
            ],
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        for key, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_render_labels(key)} {_format(value)}")
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise MatchingError(
                f"histogram {name} buckets must be ascending; got {buckets}"
            )
        self.buckets = tuple(float(b) for b in buckets)
        # per label set: (bucket counts, sum, count)
        self._series: dict[LabelKey, tuple[list[int], float, int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = ([0] * len(self.buckets), 0.0, 0)
            counts, total, count = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            self._series[key] = (counts, total + value, count + 1)

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """``{"count", "sum", "buckets": {le: cumulative}}`` for a series."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        counts, total, count = series
        return {
            "count": count,
            "sum": total,
            "buckets": {
                _format(bound): counts[i] for i, bound in enumerate(self.buckets)
            },
        }

    def samples(self) -> Iterator[tuple[dict[str, str], dict[str, Any]]]:
        for key in sorted(self._series):
            yield dict(key), self.snapshot(**dict(key))

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [
                {"labels": labels, **snap} for labels, snap in self.samples()
            ],
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        for key, (counts, total, count) in sorted(self._series.items()):
            for i, bound in enumerate(self.buckets):
                le = (("le", _format(bound)),)
                lines.append(
                    f"{self.name}_bucket{_render_labels(key, le)} {counts[i]}"
                )
            inf = (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_render_labels(key, inf)} {count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines


def _format(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Named metrics with get-or-create accessors and two exporters.

    Creation is serialised under a registry lock (two threads asking
    for the same name must get the *same* metric object — one of two
    racing instances would otherwise collect into the void) and every
    series update locks its metric, so one registry may be shared by
    the serving pool's merge path, sessions on other threads and the
    tracer.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, cls: type[_Metric], name: str, help: str, **kwargs: Any
    ) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise MatchingError(
                    f"metric {name!r} is already registered as a {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        kwargs = {} if buckets is None else {"buckets": tuple(buckets)}
        return self._get_or_create(Histogram, name, help, **kwargs)  # type: ignore[return-value]

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def value(self, name: str, **labels: Any) -> float:
        """Counter series value; 0.0 for unknown names or series."""
        metric = self._metrics.get(name)
        if not isinstance(metric, Counter):
            return 0.0
        return metric.value(**labels)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-dumpable snapshot of every metric and series."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

    def dump_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in self.names():
            lines.extend(self._metrics[name].render())  # type: ignore[attr-defined]
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# the ambient surface instrumentation sites call
# ----------------------------------------------------------------------
def current_metrics() -> MetricsRegistry | None:
    """The ambient registry, or ``None`` when metrics are off."""
    return _METRICS.get()


class use_metrics:
    """Install ``registry`` as the ambient registry for a ``with`` block."""

    __slots__ = ("_registry", "_token")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def __enter__(self) -> MetricsRegistry:
        self._token = _METRICS.set(self._registry)
        return self._registry

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        _METRICS.reset(self._token)
        return False


#: EngineStats fields published per run by :func:`publish_engine_stats`
#: — every integer counter, each as ``repro_engine_<field>_total``.
ENGINE_COUNTER_FIELDS = (
    "inspected_matches",
    "batches",
    "pairs_created",
    "deltas_applied",
    "snapshot_hits",
    "snapshot_builds",
    "sim_hits",
    "sim_builds",
    "paircsr_hits",
    "paircsr_builds",
)


def publish_engine_stats(
    registry: MetricsRegistry, stats: "EngineStats", algorithm: str
) -> None:
    """Lift one run's :class:`EngineStats` into the registry.

    Every integer counter becomes ``repro_engine_<field>_total``
    labelled by algorithm, plus a run counter and an elapsed-time
    histogram — the wrappers call this once per completed run, so the
    registry accumulates exactly what ``run_all.py --profile`` tables.
    """
    registry.counter(
        "repro_engine_runs_total", "algorithm runs observed"
    ).inc(1, algorithm=algorithm)
    for field in ENGINE_COUNTER_FIELDS:
        value = getattr(stats, field)
        if value:
            registry.counter(
                f"repro_engine_{field}_total",
                f"EngineStats.{field} summed over runs",
            ).inc(value, algorithm=algorithm)
    if stats.terminated_early:
        registry.counter(
            "repro_engine_terminated_early_total",
            "runs where Proposition 3 fired before exhaustion",
        ).inc(1, algorithm=algorithm)
    registry.histogram(
        "repro_engine_elapsed_seconds", "wall-clock runtime per run"
    ).observe(stats.elapsed_seconds, algorithm=algorithm)
