"""CSR snapshot fast path vs the dict reference path, head to head.

Measures the two propagation workloads of the paper's Figure 5 runtime
experiments — fig5d (YouTube, cyclic patterns) and fig5e (Citation, DAG
patterns) — twice per shape:

``simulation``
    The HHK simulation/propagation kernel: candidate computation plus
    the fixpoint with its removal cascade (``maximal_simulation``), on
    the dict-of-sets reference path vs the array kernel over the
    graph's compiled CSR snapshot.

``engine``
    The full early-terminating top-k run (``TopK`` / ``TopKDAG``), with
    only the ``use_csr`` toggle flipped (greedy selection both times).
    The cyclic engine's SCC group machinery is shared by both paths, so
    its figure is a conservative end-to-end view.

Both arms are asserted to return identical results before anything is
timed — the speedup is never bought with divergence.  Timings take the
minimum over ``--rounds`` repetitions (noise-robust); the snapshot is
compiled once up front and its build time reported separately, matching
production use where one snapshot serves many queries.

Usage::

    PYTHONPATH=src python benchmarks/bench_csr_kernel.py
    PYTHONPATH=src python benchmarks/bench_csr_kernel.py --json BENCH_csr.json
    PYTHONPATH=src python benchmarks/bench_csr_kernel.py --smoke

``--smoke`` runs a reduced-scale pass and exits non-zero when the CSR
path is slower than the dict path (the CI guard).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.harness import peak_memory_bytes
from repro.bench.workloads import BENCH_SCALE, bench_graph, bench_pattern
from repro.simulation.candidates import compute_candidates
from repro.simulation.match import maximal_simulation
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag

#: The Figure 5 runtime workloads this PR's tentpole targets.
WORKLOADS = {
    "fig5d": {"dataset": "youtube", "cyclic": True, "shapes": [(4, 8), (6, 12)]},
    "fig5e": {"dataset": "citation", "cyclic": False, "shapes": [(4, 6), (8, 12)]},
}


def _best_of(fn, rounds: int) -> float:
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def _run_shape(dataset, shape, cyclic, k, rounds, scale_factor):
    graph = bench_graph(dataset, scale_factor)
    pattern = bench_pattern(dataset, shape[0], shape[1], cyclic, 0, scale_factor)

    snapshot_started = time.perf_counter()
    graph.snapshot()
    snapshot_seconds = time.perf_counter() - snapshot_started

    # -- simulation kernel --------------------------------------------
    def sim_dict():
        candidates = compute_candidates(pattern, graph, optimized=False)
        return maximal_simulation(pattern, graph, candidates, optimized=False)

    def sim_csr():
        candidates = compute_candidates(pattern, graph, optimized=True)
        return maximal_simulation(pattern, graph, candidates, optimized=True)

    reference, fast = sim_dict(), sim_csr()
    mismatches = 0
    if reference.sim != fast.sim or reference.total != fast.total:
        mismatches += 1
    # The kernel is cheap relative to the engine: double the rounds for
    # a noise-robust minimum.
    sim_dict_s = _best_of(sim_dict, rounds * 2)
    sim_csr_s = _best_of(sim_csr, rounds * 2)

    # -- top-k engine --------------------------------------------------
    engine = top_k if cyclic else top_k_dag
    eng_reference = engine(pattern, graph, k, use_csr=False)
    eng_fast = engine(pattern, graph, k, use_csr=True)
    if (
        eng_reference.matches != eng_fast.matches
        or eng_reference.scores != eng_fast.scores
    ):
        mismatches += 1
    eng_dict_s = _best_of(lambda: engine(pattern, graph, k, use_csr=False), rounds)
    eng_csr_s = _best_of(lambda: engine(pattern, graph, k, use_csr=True), rounds)

    # Separate memory pass: tracemalloc slows execution, so it never
    # overlaps the timed rounds above.
    peak_memory = {
        "engine_dict": peak_memory_bytes(
            lambda: engine(pattern, graph, k, use_csr=False)
        ),
        "engine_csr": peak_memory_bytes(
            lambda: engine(pattern, graph, k, use_csr=True)
        ),
    }

    return {
        "shape": list(shape),
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "snapshot_build_seconds": round(snapshot_seconds, 5),
        "simulation": {
            "dict_seconds": round(sim_dict_s, 5),
            "csr_seconds": round(sim_csr_s, 5),
            "speedup": round(sim_dict_s / sim_csr_s, 2) if sim_csr_s else None,
        },
        "engine": {
            "dict_seconds": round(eng_dict_s, 5),
            "csr_seconds": round(eng_csr_s, 5),
            "speedup": round(eng_dict_s / eng_csr_s, 2) if eng_csr_s else None,
        },
        "peak_memory_bytes": peak_memory,
        "mismatches": mismatches,
    }


def run(k: int = 10, rounds: int = 7, scale_factor: float | None = None) -> dict:
    """Run every workload; returns the result dict (see BENCH_csr.json)."""
    if scale_factor is None:
        # Undo the pytest-suite downscale: benchmark at the full
        # surrogate sizes of EXPERIMENTS.md (~6k nodes).
        scale_factor = 1.0 / BENCH_SCALE
    workloads = {}
    for figure, spec in WORKLOADS.items():
        shapes = [
            _run_shape(
                spec["dataset"], shape, spec["cyclic"], k, rounds, scale_factor
            )
            for shape in spec["shapes"]
        ]
        sim_dict_s = sum(s["simulation"]["dict_seconds"] for s in shapes)
        sim_csr_s = sum(s["simulation"]["csr_seconds"] for s in shapes)
        eng_dict_s = sum(s["engine"]["dict_seconds"] for s in shapes)
        eng_csr_s = sum(s["engine"]["csr_seconds"] for s in shapes)
        workloads[figure] = {
            "dataset": spec["dataset"],
            "cyclic": spec["cyclic"],
            "shapes": shapes,
            # The headline number: the simulation/propagation kernel this
            # PR ported to the CSR snapshot, aggregated over the figure's
            # pattern shapes.
            "speedup": round(sim_dict_s / sim_csr_s, 2) if sim_csr_s else None,
            "engine_speedup": round(eng_dict_s / eng_csr_s, 2) if eng_csr_s else None,
            "mismatches": sum(s["mismatches"] for s in shapes),
        }
    return {
        "benchmark": "csr-kernel-vs-dict",
        "config": {
            "k": k,
            "rounds": rounds,
            "scale_factor": round(scale_factor, 4),
            "bench_scale": BENCH_SCALE,
        },
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--scale-factor", type=float, default=None,
                        help="workload scale multiplier (default: full surrogate size)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale pass; fail when CSR is slower than dict")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result dict as JSON to PATH")
    args = parser.parse_args(argv)

    scale_factor = args.scale_factor
    rounds = args.rounds
    if args.smoke and scale_factor is None:
        scale_factor = 1.0  # pytest-suite scale: seconds, not minutes
        rounds = min(rounds, 3)

    result = run(k=args.k, rounds=rounds, scale_factor=scale_factor)

    failures = 0
    for figure, record in result["workloads"].items():
        print(
            f"{figure} ({record['dataset']}, "
            f"{'cyclic' if record['cyclic'] else 'DAG'}): "
            f"simulation {record['speedup']}x, "
            f"engine {record['engine_speedup']}x, "
            f"mismatches {record['mismatches']}"
        )
        for shape in record["shapes"]:
            sim, eng = shape["simulation"], shape["engine"]
            print(
                f"  {tuple(shape['shape'])}: "
                f"sim {sim['dict_seconds'] * 1000:7.1f}ms -> "
                f"{sim['csr_seconds'] * 1000:6.1f}ms ({sim['speedup']}x)  "
                f"engine {eng['dict_seconds'] * 1000:7.1f}ms -> "
                f"{eng['csr_seconds'] * 1000:6.1f}ms ({eng['speedup']}x)"
            )
        if record["mismatches"]:
            failures += 1
        if args.smoke and (record["speedup"] is None or record["speedup"] < 1.0):
            print(f"  SMOKE FAILURE: CSR slower than dict on {figure}")
            failures += 1

    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
