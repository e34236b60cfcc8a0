"""Result and instrumentation containers for the top-k algorithms.

The experiments of Section 6 measure two things per run: wall-clock time
and the *match ratio* ``MR = |M^t_u| / |Mu|`` — the fraction of the output
node's matches an algorithm had to inspect before stopping.  Every
algorithm in this library therefore returns a :class:`TopKResult` carrying
an :class:`EngineStats` with exactly those counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineStats:
    """Counters describing one algorithm run.

    Attributes
    ----------
    inspected_matches:
        ``|M^t_u|`` — matches of the output node the algorithm visited
        (the numerator of the paper's match ratio MR).
    total_matches:
        ``|Mu(Q, G, uo)|`` when known (always known for ``Match``; filled
        in by the harness for early-termination runs).
    pairs_created:
        Match pairs in the top-k engine's evaluation (the pair graph of
        the query nodes the output node reaches).
    terminated_early:
        True when Proposition 3 fired before every match was visited.
    batches / deltas_applied:
        Always 0.  They counted the propagation rounds and relevance
        deltas of the bottom-up bound propagation of Sections 4.1–4.2,
        which this engine does not run: it evaluates each visited match
        exactly (see :mod:`repro.topk.engine`).  Kept because the
        serving benchmark's tracer reads them.
    snapshot_hits / snapshot_builds:
        Compiled CSR snapshot served from the graph-level cache versus
        compiled for this run.
    sim_hits / sim_builds:
        Simulation fixpoint served from a session cache versus computed
        by this run.
    paircsr_hits / paircsr_builds:
        The evaluation (pair graph, condensation, bounds and
        relevant-set memo) served from a session cache versus built.
    elapsed_seconds:
        Wall-clock runtime of the algorithm body.
    """

    inspected_matches: int = 0
    total_matches: int | None = None
    batches: int = 0
    pairs_created: int = 0
    terminated_early: bool = False
    deltas_applied: int = 0
    snapshot_hits: int = 0
    snapshot_builds: int = 0
    sim_hits: int = 0
    sim_builds: int = 0
    paircsr_hits: int = 0
    paircsr_builds: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict[str, int | float | bool | None]:
        """Every counter as a flat dict (exporters, harness payloads)."""
        from dataclasses import fields as _fields

        return {f.name: getattr(self, f.name) for f in _fields(self)}

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold ``other``'s counters into this instance (returns self).

        Integer counters add; ``elapsed_seconds`` adds;
        ``terminated_early`` ORs; ``total_matches`` adds when both sides
        know it and degrades to ``None`` otherwise (an unknown
        denominator poisons the sum, exactly like the match ratio).
        Accumulators (per-arm bench totals, multi-run profiles) use this
        instead of hand-summing a drifting subset of fields.
        """
        from dataclasses import fields as _fields

        for f in _fields(self):
            if f.name in ("total_matches", "terminated_early", "elapsed_seconds"):
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        if self.total_matches is None or other.total_matches is None:
            self.total_matches = None
        else:
            self.total_matches += other.total_matches
        self.terminated_early = self.terminated_early or other.terminated_early
        self.elapsed_seconds += other.elapsed_seconds
        return self

    def cache_counters(self) -> dict[str, int]:
        """The cache-effectiveness counters as a flat dict (for harness
        ``extra`` payloads and the ``run_all.py --profile`` table)."""
        return {
            "snapshot_hits": self.snapshot_hits,
            "snapshot_builds": self.snapshot_builds,
            "sim_hits": self.sim_hits,
            "sim_builds": self.sim_builds,
            "paircsr_hits": self.paircsr_hits,
            "paircsr_builds": self.paircsr_builds,
        }

    @property
    def match_ratio(self) -> float | None:
        """``MR`` per the paper; ``None`` until ``total_matches`` is known."""
        if self.total_matches is None:
            return None
        if self.total_matches == 0:
            return 0.0
        return self.inspected_matches / self.total_matches


@dataclass
class TopKResult:
    """The outcome of a (diversified) top-k matching run.

    Attributes
    ----------
    matches:
        The selected matches of the output node, best first.  May hold
        fewer than k elements when ``uo`` has fewer than k matches (the
        paper returns all of them in that case), and is empty when ``G``
        does not match ``Q``.
    scores:
        Per-match relevance, exact for every algorithm: the
        early-terminating ones evaluate each visited match's relevant
        set in full.
    algorithm:
        Which algorithm produced the result (``"Match"``, ``"TopK"``, ...).
    objective_value:
        ``F(S)`` for the diversified algorithms, ``None`` otherwise.
    stats:
        Run counters (see :class:`EngineStats`).
    """

    matches: list[int]
    scores: dict[int, float]
    algorithm: str
    stats: EngineStats = field(default_factory=EngineStats)
    objective_value: float | None = None

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self):
        return iter(self.matches)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.matches)

    def total_relevance(self) -> float:
        """``δr(S)`` — the sum the topKP objective maximises."""
        return sum(self.scores.get(v, 0.0) for v in self.matches)
