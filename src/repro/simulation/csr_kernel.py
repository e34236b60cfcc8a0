"""Array-backed HHK simulation fixpoint over a CSR snapshot.

The counter-based refinement of Henzinger, Henzinger & Kopke that
:func:`repro.simulation.match.maximal_simulation` computes, compiled
onto the :class:`repro.graph.csr.CSRSnapshot` layout:

* one support counter *per child query node* instead of one per pattern
  edge: ``counter[u'][v] = |successors(v) ∩ sim(u')|`` is the only
  quantity the refinement consults, and it is identical for every
  pattern edge sharing the child ``u'``;
* counter initialisation is one vectorised prefix-sum scan of the CSR
  edge array per distinct child (:meth:`CSRSnapshot.out_counts`);
* membership is an array of bytes per query node (``bytearray``), so
  removal tests and clears are plain indexing;
* the removal cascade runs level-synchronously: each round batches the
  nodes that left ``sim(u')`` and propagates their support loss to
  predecessors either by a scalar walk of the flat CSR mirrors (small
  rounds — total work stays within the HHK ``O(|Q||G|)`` bound) or by
  one vectorised counting scan (heavy rounds, where the batch amortises
  the full-edge gather).

The test suite checks the greatest fixpoint against the naive
transcription in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.obs import current_metrics, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRSnapshot
    from repro.graph.digraph import Graph
    from repro.patterns.pattern import Pattern
    from repro.simulation.candidates import CandidateSets

#: Strategy thresholds for the removal cascade.  A child's support-loss
#: pass goes batched (multi-slice gather + grouped decrement) once its
#: front carries ``BATCH_CUTOFF`` predecessor weight — enough to
#: amortise the numpy calls — and a whole round collapses into one
#: global recount sweep when its weight exceeds ``SWEEP_FRACTION`` of
#: the edge array.  Module-level so tests can force each tier.
BATCH_CUTOFF = 192
SWEEP_FRACTION = 0.5


def simulation_fixpoint_csr(
    pattern: "Pattern",
    graph: "Graph",
    candidates: "CandidateSets",
    snapshot: "CSRSnapshot | None" = None,
) -> list[set[int]]:
    """The greatest simulation as ``list[set[int]]`` (one set per query node).

    Exactly :func:`repro.simulation.match.maximal_simulation`'s fixpoint,
    computed over ``snapshot`` (defaults to ``graph.snapshot()``).
    """
    with trace("simulation.fixpoint", path="csr") as span:
        result, rounds = _fixpoint_cascade(pattern, graph, candidates, snapshot)
        if span is not None:
            span.set_attr(rounds=rounds)
    registry = current_metrics()
    if registry is not None:
        registry.counter(
            "repro_simulation_fixpoints_total",
            "Simulation fixpoint computations by path.",
        ).inc(1, path="csr")
        if rounds:
            registry.counter(
                "repro_simulation_rounds_total",
                "Removal-cascade rounds run to reach the fixpoint.",
            ).inc(rounds, path="csr")
    return result


def _fixpoint_cascade(
    pattern: "Pattern",
    graph: "Graph",
    candidates: "CandidateSets",
    snapshot: "CSRSnapshot | None",
) -> tuple[list[set[int]], int]:
    """The cascade body: the fixpoint plus the number of rounds it ran."""
    snap = snapshot if snapshot is not None else graph.snapshot()
    n = snap.num_nodes
    num_q = pattern.num_nodes

    # Membership per query node: one byte per node, with a zero-copy
    # numpy view over the same buffer so the scalar cascade and the
    # vectorised scans share state.
    cand_arrs: list[np.ndarray] = []
    sim: list[bytearray] = []
    sim_views: list[np.ndarray] = []
    for u in range(num_q):
        arr = np.asarray(candidates.lists[u], dtype=np.int64)
        flags = np.zeros(n, dtype=np.uint8)
        if arr.size:
            flags[arr] = 1
        cand_arrs.append(arr)
        buffer = bytearray(flags.tobytes())
        sim.append(buffer)
        sim_views.append(np.frombuffer(buffer, dtype=np.uint8))

    # Support counters per *child* query node: ``counter[u'][v]`` is the
    # number of v's successors inside sim(u'), initialised from the full
    # candidate sets, before any removal is applied.
    children = sorted({u_child for _, u_child in pattern.edges()})
    parents_of: dict[int, list[int]] = {
        uc: list(pattern.predecessors(uc)) for uc in children
    }
    out_edges: list[list[int]] = [list(pattern.successors(u)) for u in range(num_q)]
    counters: dict[int, np.ndarray] = {
        uc: snap.out_counts(sim_views[uc]) for uc in children
    }

    def cull(alive_arrs: list[np.ndarray], pending: list[list[int]]) -> None:
        """Drop every member with a zero-support pattern edge."""
        for u in range(num_q):
            alive = alive_arrs[u]
            if not alive.size or not out_edges[u]:
                continue
            dead = None
            for u_child in out_edges[u]:
                zero = counters[u_child][alive] == 0
                dead = zero if dead is None else (dead | zero)
            if dead is not None and dead.any():
                removed = alive[dead].tolist()
                sim_u = sim[u]
                for v in removed:
                    sim_u[v] = 0
                pending[u].extend(removed)

    pending: list[list[int]] = [[] for _ in range(num_q)]
    cull(cand_arrs, pending)

    in_offsets, in_sources = snap.in_csr_lists()
    num_edges = snap.num_edges
    batch_cutoff = BATCH_CUTOFF
    sweep_cutoff = max(256, int(num_edges * SWEEP_FRACTION))

    # Level-synchronous cascade to the greatest fixpoint.
    rounds = 0
    while True:
        level = pending
        pending = [[] for _ in range(num_q)]
        weights = {}
        total_weight = 0
        for u_child in children:
            removed = level[u_child]
            if not removed:
                continue
            weight = 0
            for v in removed:
                weight += in_offsets[v + 1] - in_offsets[v]
            weights[u_child] = weight
            total_weight += weight
        if not weights:
            break
        rounds += 1

        if total_weight >= sweep_cutoff:
            # Heavy round: recount every child's support from current
            # membership in one vectorised sweep; the members that die
            # now feed the next round exactly like the initial cull.
            for u_child in children:
                counters[u_child] = snap.out_counts(sim_views[u_child])
            alive_arrs = [np.nonzero(view)[0] for view in sim_views]
            cull(alive_arrs, pending)
            continue

        for u_child in children:
            removed = level[u_child]
            if not removed:
                continue
            counter = counters[u_child]
            parents = parents_of[u_child]
            if weights[u_child] < batch_cutoff:
                # Scalar walk: decrement per predecessor occurrence.
                for v in removed:
                    for w in in_sources[in_offsets[v] : in_offsets[v + 1]]:
                        count = counter[w] - 1
                        counter[w] = count
                        if count == 0:
                            for u in parents:
                                if sim[u][w]:
                                    sim[u][w] = 0
                                    pending[u].append(w)
            else:
                # Batched: gather the front's predecessor slices in one
                # index expansion, group them, and decrement each
                # touched counter once by its multiplicity.
                gathered = snap.gather_in_slices(removed)
                if not gathered.size:
                    continue
                touched, losses = np.unique(gathered, return_counts=True)
                fresh = counter[touched] - losses
                counter[touched] = fresh
                newly_zero = touched[fresh == 0].tolist()
                for u in parents:
                    sim_u = sim[u]
                    bucket = pending[u]
                    for w in newly_zero:
                        if sim_u[w]:
                            sim_u[w] = 0
                            bucket.append(w)

    return [set(np.nonzero(view)[0].tolist()) for view in sim_views], rounds
