"""Batched serving through one MatchSession vs looped one-shot calls.

The compiled snapshot is graph-cached, but the one-shot API rebuilds
the engine's pattern-keyed artifacts (simulation, top-k evaluation) per
call.  This benchmark measures the session front end that amortises
them: a **50-query mixed batch** (top-k, diversified heuristic and
2-approximation, find-all baseline, multi-output fan-outs, repeated
pattern structures with varying ``k`` — the serving-tier shape where
many concurrent queries share a handful of registered pattern
templates) executed two ways:

``oneshot``
    The pre-session surface: every query is an independent
    ``api.top_k_matches`` / ``api.diversified_matches`` /
    ``api.baseline_matches`` / ``api.top_k_matches_multi`` call.  The
    graph-level snapshot cache still applies (as it did before this
    PR); everything pattern-keyed is rebuilt per call.

``session``
    One ``MatchSession.run_batch`` over the same 50 specs: label
    buckets, candidates, simulations, top-k evaluations and ranking
    contexts are computed once per distinct pattern structure and
    shared across the batch.

Workloads mirror the Figure 5 engine-time figures:

``fig5d``
    YouTube surrogate, cyclic pattern shapes (the cyclic engine-time
    figure).

``fig5e``
    Citation surrogate, DAG pattern shapes (the DAG engine-time
    figure).

Batch answers are asserted identical to the looped one-shot answers
before anything is timed.  Timings interleave the two arms across
``--rounds`` repetitions (minimum taken) so machine drift hits both
equally.

Usage::

    PYTHONPATH=src python benchmarks/bench_session.py
    PYTHONPATH=src python benchmarks/bench_session.py --json BENCH_session.json
    PYTHONPATH=src python benchmarks/bench_session.py --smoke

``--smoke`` runs a reduced-scale pass and exits non-zero when the
session batch is slower than the one-shot loop on either workload (the
CI guard), or when any batch answer diverges from its one-shot twin.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from pathlib import Path

from repro import api
from repro.bench.harness import peak_memory_bytes
from repro.bench.workloads import BENCH_SCALE, bench_graph, bench_pattern
from repro.session import MatchSession, QuerySpec

#: Figure 5 engine-time workloads: pattern shapes per dataset.  Each
#: shape is instantiated with several generator seeds, giving a pool of
#: distinct pattern *structures* the 50-query batch cycles through.
WORKLOADS = {
    "fig5d": {
        "dataset": "youtube",
        "cyclic": True,
        "shapes": [(4, 8), (5, 10), (6, 12)],
        "seeds": [0, 1],
    },
    "fig5e": {
        "dataset": "citation",
        "cyclic": False,
        "shapes": [(4, 6), (6, 9), (8, 12)],
        "seeds": [0, 1],
    },
}

BATCH_SIZE = 50


def build_batch(dataset: str, shapes, cyclic: bool, seeds, factor: float) -> list[QuerySpec]:
    """The 50-query mixed batch over a pool of distinct patterns.

    Query modes rotate deterministically (top-k at two k values,
    diversified heuristic, the approx/baseline pair, a multi-output
    fan-out), so the batch is heterogeneous while both arms stay
    perfectly comparable.
    """
    patterns = []
    for shape in shapes:
        for seed in seeds:
            patterns.append(
                bench_pattern(dataset, shape[0], shape[1], cyclic, seed, factor)
            )
    specs: list[QuerySpec] = []
    index = 0
    while len(specs) < BATCH_SIZE:
        pattern = patterns[index % len(patterns)]
        roll = index % 5
        if roll == 0:
            specs.append(QuerySpec(pattern, k=10))
        elif roll == 1:
            specs.append(QuerySpec(pattern, k=5))
        elif roll == 2:
            specs.append(QuerySpec(pattern, k=10, mode="diversified", lam=0.5))
        elif roll == 3:
            if index % 2:
                specs.append(
                    QuerySpec(pattern, k=10, mode="diversified", method="approx")
                )
            else:
                specs.append(QuerySpec(pattern, k=10, mode="baseline"))
        else:
            multi = copy.deepcopy(pattern)
            multi.set_output(pattern.output_node, pattern.num_nodes - 1)
            specs.append(QuerySpec(multi, k=10, mode="multi"))
        index += 1
    return specs


def run_oneshot(specs, graph):
    """The looped pre-session surface: one independent call per query."""
    results = []
    for spec in specs:
        if spec.mode == "topk":
            results.append(api.top_k_matches(spec.pattern, graph, spec.k))
        elif spec.mode == "baseline":
            results.append(api.baseline_matches(spec.pattern, graph, spec.k))
        elif spec.mode == "multi":
            results.append(api.top_k_matches_multi(spec.pattern, graph, spec.k))
        else:
            results.append(
                api.diversified_matches(
                    spec.pattern, graph, spec.k, lam=spec.lam, method=spec.method
                )
            )
    return results


def run_session(specs, graph):
    with MatchSession(graph) as session:
        results = session.run_batch(specs)
        stats = session.cache_stats()
    return results, stats


def _same(a, b) -> bool:
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and set(a) == set(b)
            and all(_same(a[node], b[node]) for node in a)
        )
    return a.matches == b.matches and a.scores == b.scores


def _run_case(figure: str, spec: dict, factor: float, rounds: int) -> dict:
    graph = bench_graph(spec["dataset"], factor)
    specs = build_batch(
        spec["dataset"], spec["shapes"], spec["cyclic"], spec["seeds"], factor
    )
    graph.snapshot()  # compiled once up front, as in production use

    oneshot_results = run_oneshot(specs, graph)
    session_results, cache_stats = run_session(specs, graph)
    mismatches = sum(
        1
        for one, batched in zip(oneshot_results, session_results)
        if not _same(one, batched)
    )

    best = {"oneshot": float("inf"), "session": float("inf")}
    for _ in range(rounds):  # interleaved: drift hits both arms equally
        started = time.perf_counter()
        run_oneshot(specs, graph)
        best["oneshot"] = min(best["oneshot"], time.perf_counter() - started)
        started = time.perf_counter()
        run_session(specs, graph)
        best["session"] = min(best["session"], time.perf_counter() - started)

    # Separate memory pass: tracemalloc slows execution, so it never
    # overlaps the timed rounds above.
    peak_memory = {
        "oneshot": peak_memory_bytes(lambda: run_oneshot(specs, graph)),
        "session": peak_memory_bytes(lambda: run_session(specs, graph)),
    }

    seconds = {arm: round(value, 5) for arm, value in best.items()}
    distinct = len(spec["shapes"]) * len(spec["seeds"])
    return {
        "dataset": spec["dataset"],
        "scale_factor": round(factor, 4),
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "batch": {"queries": len(specs), "distinct_patterns": distinct},
        "batch_seconds": seconds,
        "peak_memory_bytes": peak_memory,
        "speedup": (
            round(seconds["oneshot"] / seconds["session"], 2)
            if seconds["session"]
            else None
        ),
        "session_cache": cache_stats,
        "mismatches": mismatches,
    }


def run(rounds: int = 3, scale_factor: float | None = None) -> dict:
    """Run every workload; returns the result dict (see BENCH_session.json)."""
    if scale_factor is None:
        # Undo the pytest-suite downscale: benchmark at the full
        # surrogate sizes of EXPERIMENTS.md (~6k nodes).
        scale_factor = 1.0 / BENCH_SCALE
    workloads = {
        figure: _run_case(figure, spec, scale_factor, rounds)
        for figure, spec in WORKLOADS.items()
    }
    return {
        "benchmark": "session-batched-serving",
        "config": {
            "batch_size": BATCH_SIZE,
            "rounds": rounds,
            "scale_factor": round(scale_factor, 4),
            "bench_scale": BENCH_SCALE,
        },
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--scale-factor", type=float, default=None,
                        help="workload scale multiplier (default: full surrogate size)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale pass; fail when the session batch "
                             "is slower than the one-shot loop")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result dict as JSON to PATH")
    args = parser.parse_args(argv)

    scale_factor = args.scale_factor
    rounds = args.rounds
    if args.smoke and scale_factor is None:
        scale_factor = 1.0  # pytest-suite scale: seconds, not minutes
        rounds = min(rounds, 2)

    result = run(rounds=rounds, scale_factor=scale_factor)

    failures = 0
    for figure, record in result["workloads"].items():
        sec = record["batch_seconds"]
        mem = record["peak_memory_bytes"]
        cache = record["session_cache"]
        hits = sum(v for key, v in cache.items() if key.endswith("_hits"))
        builds = sum(v for key, v in cache.items() if key.endswith("_builds"))
        print(
            f"{figure} ({record['dataset']}): "
            f"{record['batch']['queries']} queries over "
            f"{record['batch']['distinct_patterns']} patterns — "
            f"oneshot {sec['oneshot'] * 1000:8.1f}ms  "
            f"session {sec['session'] * 1000:8.1f}ms "
            f"({record['speedup']}x), cache {hits} hits / {builds} builds, "
            f"peak mem {mem['oneshot'] / 1e6:.1f}/{mem['session'] / 1e6:.1f}MB, "
            f"mismatches {record['mismatches']}"
        )
        if record["mismatches"]:
            failures += 1
        if args.smoke and (record["speedup"] is None or record["speedup"] < 1.0):
            print(f"  SMOKE FAILURE: session batch slower than one-shot loop on {figure}")
            failures += 1

    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
