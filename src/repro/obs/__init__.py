"""Observability: tracing, metrics, exporters, and the slow-query log.

The serving path's shared instrumentation substrate (zero dependencies,
stdlib only).  Three pieces:

* :mod:`repro.obs.trace` — contextvar-based nested spans with events,
  exception tagging and JSON-lines export;
* :mod:`repro.obs.metrics` — a named counter/histogram registry with
  JSON and Prometheus text exporters;
* :mod:`repro.obs.slowlog` — the per-query slow-query log every engine
  wrapper feeds.

Instrumentation sites consult the *ambient* collectors
(:func:`current_tracer` / :func:`current_metrics`), and
:func:`use_tracer` / :func:`use_metrics` are the only way to install
them.  With nothing installed every hook is a strict no-op (one
contextvar read per phase boundary).  :func:`record_run` is every
engine wrapper's epilogue: it publishes the run's stats and feeds the
slow-query log.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    current_metrics,
    publish_engine_stats,
    use_metrics,
)
from repro.obs.runtime import record_run
from repro.obs.slowlog import maybe_log_slow_query
from repro.obs.trace import (
    TRACE_FORMAT,
    Span,
    SpanEvent,
    Tracer,
    current_tracer,
    load_jsonl,
    span_event,
    trace,
    use_tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanEvent",
    "TRACE_FORMAT",
    "Tracer",
    "current_metrics",
    "current_tracer",
    "load_jsonl",
    "maybe_log_slow_query",
    "publish_engine_stats",
    "record_run",
    "span_event",
    "trace",
    "use_metrics",
    "use_tracer",
]
