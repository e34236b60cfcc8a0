"""``ExecutionConfig`` — one validated object for every execution setting.

:class:`ExecutionConfig` is one frozen, validated dataclass threaded
through every layer instead of loose keyword arguments, and
:meth:`ExecutionConfig.resolved` is the single place the defaulting
chain lives (``use_csr`` follows ``optimized``).

The keyword surface of the engine wrappers (``optimized`` /
``use_csr`` / ``seed``) remains accepted everywhere via
:meth:`ExecutionConfig.adapt` (the adapter the wrappers call): passing
the kwargs builds the equivalent config; passing ``config=`` wins, and
mixing ``config=`` with an explicit kwarg is rejected as ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import MatchingError

@dataclass(frozen=True)
class ExecutionConfig:
    """How (not *what*) a query executes — every engine-family toggle.

    Attributes
    ----------
    optimized:
        The paper's opt/nopt split: matches visited in descending upper
        bound (and, via the defaulting chain, the CSR fast path) versus
        seeded random order over the dict reference path.
    use_csr:
        CSR snapshot fast path.  ``None`` (default) follows
        ``optimized``.
    seed:
        RNG seed for the non-optimized random visiting order.
    trace:
        Install the process-default :class:`repro.obs.Tracer` for this
        query's run (phase spans and point events, exported via
        :meth:`Tracer.export_jsonl`).  Default off — and off is a
        strict no-op: instrumentation sites read one contextvar per
        phase boundary and nothing else.
    metrics:
        Install the process-default
        :class:`repro.obs.MetricsRegistry` for this query's run (engine
        counters, cache hit/miss, fixpoint rounds, latency histograms).
        Same strict-no-op guarantee when off.
    slow_query_seconds:
        Per-query slow-query log threshold (the ``repro.slowquery``
        logger WARNs when a run exceeds it).  ``None`` falls back to
        the ``REPRO_SLOW_QUERY_SECONDS`` environment default, else off.
    workers:
        Worker *processes* for :meth:`MatchSession.run_batch` — the
        batch's structure groups are partitioned across a spawn-safe
        :class:`repro.session.parallel.WorkerPool` and answers come
        back in input order, identical to serial.  ``0`` (default) and
        ``1`` run serial in-process.
    snapshot_patching:
        Delta-aware serving under write streams.  When on, the session
        attaches a :class:`repro.graph.csr.SnapshotPatcher` to its
        graph — small deltas *patch* the cached CSR snapshot (overlay
        segments + tombstones) instead of recompiling it — and
        :meth:`SessionCache.refresh` after a mutation drops only the
        artifacts whose label signature intersects the accumulated
        delta (label-selective invalidation) instead of everything.
        Default off: the wholesale drop + full rebuild stays the
        oracle, answers are identical either way.
    """

    optimized: bool = True
    use_csr: bool | None = None
    seed: int = 0
    trace: bool = False
    metrics: bool = False
    slow_query_seconds: float | None = None
    workers: int = 0
    snapshot_patching: bool = False

    def __post_init__(self) -> None:
        if self.slow_query_seconds is not None and self.slow_query_seconds <= 0:
            raise MatchingError(
                f"slow_query_seconds must be positive; got {self.slow_query_seconds}"
            )
        if self.workers < 0:
            raise MatchingError(
                f"workers must be non-negative; got {self.workers}"
            )

    def resolved(self) -> "ExecutionConfig":
        """The config with ``use_csr`` made concrete.

        This is the single home of the defaulting chain: ``use_csr``
        defaults to ``optimized``.  Idempotent: resolving a resolved
        config returns it unchanged.
        """
        use = self.optimized if self.use_csr is None else bool(self.use_csr)
        if use == self.use_csr:
            return self
        return replace(self, use_csr=use)

    @classmethod
    def adapt(
        cls,
        config: "ExecutionConfig | None" = None,
        *,
        optimized: bool = True,
        use_csr: bool | None = None,
        seed: int = 0,
    ) -> "ExecutionConfig":
        """The adapter mapping the wrappers' keyword surface.

        Every engine wrapper funnels its keyword arguments through here:
        with ``config`` given it wins outright — and combining it with
        *any* kwarg set away from its default (``optimized=False``, a
        forced ``use_csr``, a seed) is rejected as ambiguous rather than
        silently dropped.  Without ``config`` the kwargs build the
        equivalent config.
        """
        if config is not None:
            conflicting = [
                name
                for name, value, default in (
                    ("optimized", optimized, True),
                    ("use_csr", use_csr, None),
                    ("seed", seed, 0),
                )
                if value != default
            ]
            if conflicting:
                raise MatchingError(
                    "pass either config= or the engine kwargs, not "
                    f"both (got config plus {', '.join(conflicting)})"
                )
            return config
        return cls(optimized=optimized, use_csr=use_csr, seed=seed)
