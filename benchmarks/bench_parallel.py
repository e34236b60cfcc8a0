"""Multiprocess batch serving: serial session vs N-worker pools.

PR 5's session amortised per-pattern artifacts across a batch; this
benchmark measures the tier above it — ``ExecutionConfig(workers=N)``
partitioning the same batch across spawn-safe worker processes
(``repro.session.parallel.WorkerPool``).  Three arms over one mixed
batch per workload:

``serial``
    ``run_batch`` under ``workers=0`` — the PR 5 path, unchanged.

``workers2`` / ``workers4``
    The identical batch through a 2- and 4-process pool: the graph is
    pickled to each worker once at pool init, whole structure-groups
    go to one worker, and the parent merges results + stats.

Workloads mirror the Figure 5 scale figures on the synthetic
generators (the shapes the paper scales over |G|):

``fig5g``
    Synthetic DAG graph, DAG pattern shapes.

``fig5h``
    Synthetic cyclic graph, cyclic pattern shapes.

Pooled answers are asserted identical to the serial session's before
anything is timed.  Timings interleave all arms across ``--rounds``
repetitions (minimum taken); pool construction happens inside the
timed region on the first round of each arm — the pool then persists
across rounds, matching how a long-lived serving process pays it.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --json parallel.json
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke

``--smoke`` runs a reduced-scale pass and exits non-zero when any
pooled answer diverges from its serial twin, or — **only when the box
actually has ≥2 CPUs** — when the 2-worker arm is slower than serial
on the fig5g workload.  Process pools cannot beat serial on a
single-core container, so the throughput gate is conditional on the
CPUs in this process's scheduling affinity; the JSON records ``cpu_count``
and a ``cpu_limited`` flag so a reader knows which regime produced
the numbers.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from pathlib import Path

from repro.bench.workloads import BENCH_SCALE, bench_graph, bench_pattern
from repro.session import ExecutionConfig, MatchSession, QuerySpec

#: Figure 5 scale-figure workloads on the synthetic generators.
WORKLOADS = {
    "fig5g": {
        "dataset": "synthetic-dag",
        "cyclic": False,
        "shapes": [(4, 6), (5, 8)],
        "seeds": [0, 1],
    },
    "fig5h": {
        "dataset": "synthetic-cyclic",
        "cyclic": True,
        "shapes": [(4, 8)],
        "seeds": [0, 1],
    },
}

WORKER_ARMS = (2, 4)
BATCH_SIZE = 24
GATE_WORKLOAD = "fig5g"
GATE_WORKERS = 2


def build_batch(dataset, shapes, cyclic, seeds, factor):
    """A mixed batch over distinct pattern structures (cf. bench_session)."""
    patterns = []
    for shape in shapes:
        for seed in seeds:
            patterns.append(
                bench_pattern(dataset, shape[0], shape[1], cyclic, seed, factor)
            )
    specs = []
    index = 0
    while len(specs) < BATCH_SIZE:
        pattern = patterns[index % len(patterns)]
        roll = index % 4
        if roll == 0:
            specs.append(QuerySpec(pattern, k=10))
        elif roll == 1:
            specs.append(QuerySpec(pattern, k=5))
        elif roll == 2:
            specs.append(QuerySpec(pattern, k=10, mode="diversified", lam=0.5))
        else:
            multi = copy.deepcopy(pattern)
            multi.set_output(pattern.output_node, pattern.num_nodes - 1)
            specs.append(QuerySpec(multi, k=10, mode="multi"))
        index += 1
    return specs


def _same(a, b):
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and set(a) == set(b)
            and all(_same(a[node], b[node]) for node in a)
        )
    return a.matches == b.matches and a.scores == b.scores


def _run_case(figure, spec, factor, rounds):
    graph = bench_graph(spec["dataset"], factor)
    specs = build_batch(
        spec["dataset"], spec["shapes"], spec["cyclic"], spec["seeds"], factor
    )
    graph.snapshot()  # compiled once up front, as in production use

    arms = {"serial": 0}
    arms.update({f"workers{n}": n for n in WORKER_ARMS})
    sessions = {
        arm: MatchSession(
            graph,
            config=ExecutionConfig(workers=workers),
            reuse_results=False,  # every round re-executes; no store hits
        )
        for arm, workers in arms.items()
    }
    try:
        # Equivalence first: every pooled answer must match serial.
        reference = sessions["serial"].run_batch(specs)
        mismatches = {}
        for arm in arms:
            if arm == "serial":
                continue
            got = sessions[arm].run_batch(specs)
            mismatches[arm] = sum(
                1 for want, have in zip(reference, got) if not _same(want, have)
            )

        best = {arm: float("inf") for arm in arms}
        for _ in range(rounds):  # interleaved: drift hits all arms equally
            for arm in arms:
                started = time.perf_counter()
                sessions[arm].run_batch(specs)
                best[arm] = min(best[arm], time.perf_counter() - started)
    finally:
        for session in sessions.values():
            session.close()

    seconds = {arm: round(value, 5) for arm, value in best.items()}
    return {
        "dataset": spec["dataset"],
        "scale_factor": round(factor, 4),
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "batch": {
            "queries": len(specs),
            "distinct_patterns": len(spec["shapes"]) * len(spec["seeds"]),
        },
        "batch_seconds": seconds,
        "speedup": {
            arm: (
                round(seconds["serial"] / seconds[arm], 2) if seconds[arm] else None
            )
            for arm in arms
            if arm != "serial"
        },
        "mismatches": mismatches,
    }


def run(rounds=3, scale_factor=None):
    """Run every workload; returns the result dict (the ``--json`` payload)."""
    if scale_factor is None:
        scale_factor = 1.0 / BENCH_SCALE
    cpu_count = len(os.sched_getaffinity(0))
    workloads = {
        figure: _run_case(figure, spec, scale_factor, rounds)
        for figure, spec in WORKLOADS.items()
    }
    return {
        "benchmark": "parallel-batch-serving",
        "config": {
            "batch_size": BATCH_SIZE,
            "worker_arms": list(WORKER_ARMS),
            "rounds": rounds,
            "scale_factor": round(scale_factor, 4),
            "bench_scale": BENCH_SCALE,
        },
        "cpu_count": cpu_count,
        "cpu_limited": cpu_count < 2,
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--scale-factor", type=float, default=None,
                        help="workload scale multiplier (default: full surrogate size)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale pass; fail on answer divergence, "
                             "and on 2-worker slowdown when >=2 CPUs exist")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result dict as JSON to PATH")
    args = parser.parse_args(argv)

    scale_factor = args.scale_factor
    rounds = args.rounds
    if args.smoke and scale_factor is None:
        scale_factor = 1.0  # pytest-suite scale: seconds, not minutes
        rounds = min(rounds, 2)

    result = run(rounds=rounds, scale_factor=scale_factor)
    cpu_count = result["cpu_count"]
    print(f"cpus visible: {cpu_count}"
          + (" (cpu-limited: speedup gate skipped)" if result["cpu_limited"] else ""))

    failures = 0
    for figure, record in result["workloads"].items():
        sec = record["batch_seconds"]
        arms = "  ".join(
            f"{arm} {sec[arm] * 1000:8.1f}ms"
            + (f" ({record['speedup'][arm]}x)" if arm != "serial" else "")
            for arm in sec
        )
        bad = sum(record["mismatches"].values())
        print(
            f"{figure} ({record['dataset']}): "
            f"{record['batch']['queries']} queries — {arms}, mismatches {bad}"
        )
        if bad:
            print(f"  FAILURE: pooled answers diverged from serial on {figure}")
            failures += 1

    if args.smoke and not result["cpu_limited"]:
        gate = result["workloads"][GATE_WORKLOAD]["speedup"][f"workers{GATE_WORKERS}"]
        if gate is None or gate < 1.0:
            print(
                f"  SMOKE FAILURE: {GATE_WORKERS}-worker pool slower than the "
                f"serial session on {GATE_WORKLOAD} ({gate}x)"
            )
            failures += 1

    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
