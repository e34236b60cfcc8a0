"""``ExecutionConfig`` — one validated object for every execution setting.

:class:`ExecutionConfig` is one frozen, validated dataclass threaded
through every layer instead of loose keyword arguments.

The paper's TopK/TopKnopt keywords of the engine wrappers
(``optimized`` / ``seed``) remain accepted via
:meth:`ExecutionConfig.adapt` (the adapter the wrappers call): passing
the kwargs builds the equivalent config; passing ``config=`` wins, and
mixing ``config=`` with an explicit kwarg is rejected as ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MatchingError

@dataclass(frozen=True)
class ExecutionConfig:
    """How (not *what*) a query executes — every engine-family toggle.

    Tracing and metrics are not settings here: a run reports to the
    ambient collectors that :func:`repro.obs.use_tracer` /
    :func:`repro.obs.use_metrics` install, and to none otherwise.

    Attributes
    ----------
    optimized:
        The paper's opt/nopt split of the engine family (``TopK`` versus
        ``TopKnopt``, likewise TopKDAG and TopKDH): matches visited in
        descending upper bound versus seeded random order, over the
        same evaluation.  ``Match`` and ``TopKDiv`` visit every match
        and ignore it.
    seed:
        RNG seed for the non-optimized random visiting order.
    slow_query_seconds:
        Per-query slow-query log threshold (the ``repro.slowquery``
        logger WARNs when a run exceeds it).  ``None`` (default) is off.
    workers:
        Worker *processes* for :meth:`MatchSession.run_batch` — the
        batch's structure groups are partitioned across a spawn-safe
        :class:`repro.session.parallel.WorkerPool` and answers come
        back in input order, identical to serial.  ``0`` (default) and
        ``1`` run serial in-process.
    snapshot_patching:
        Attach a :class:`repro.graph.csr.SnapshotPatcher` to the
        session's graph: when a snapshot is needed after writes, small
        deltas *patch* the cached CSR snapshot (overlay segments +
        tombstones) instead of recompiling it.  That is all it does.
        Every session repairs its cached match relations at each write
        (:mod:`repro.session.cache`), so a write cycle that reads only
        cached patterns builds no snapshot and leaves the patcher idle.
        Default off; answers are identical either way.
    """

    optimized: bool = True
    seed: int = 0
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

    @classmethod
    def adapt(
        cls,
        config: "ExecutionConfig | None" = None,
        *,
        optimized: bool = True,
        seed: int = 0,
    ) -> "ExecutionConfig":
        """The adapter mapping the wrappers' keyword surface.

        Every engine wrapper funnels its keyword arguments through here:
        with ``config`` given it wins outright — and combining it with
        *any* kwarg set away from its default (``optimized=False``, a
        seed) is rejected as ambiguous rather than silently dropped.
        Without ``config`` the kwargs build the equivalent config.
        """
        if config is not None:
            conflicting = [
                name
                for name, value, default in (
                    ("optimized", optimized, True),
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
        return cls(optimized=optimized, seed=seed)
