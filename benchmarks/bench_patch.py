"""Serving under a write stream: wholesale recompiles vs delta patching.

This PR made a session's refresh *delta-aware*: with
``ExecutionConfig(snapshot_patching=True)`` a small mutation log patches
the compiled CSR snapshot (tombstone masks + append segments over the
flat base) instead of recompiling it, and the session cache drops only
the artifacts whose label signature intersects the delta instead of
everything.  This benchmark measures that pair on the serving shape it
targets — an **interleaved write stream**: cycles of a small mutation
burst, a refresh, then a 50-query mixed batch (the ``bench_session``
batch over the Figure 5d/5e workloads).  Two arms:

``wholesale``
    The pre-PR surface (default config): every refresh clears the whole
    session cache and the next batch recompiles the snapshot and every
    pattern's artifacts from scratch.

``selective``
    ``snapshot_patching=True``: the refresh patches the snapshot (the
    burst is far under ``compact_ratio``) and keeps every artifact the
    delta's labels cannot touch; only affected patterns rebuild.

Both arms replay the **identical** mutation stream on pickle-twin
graphs, and every cycle's batch answers are asserted identical across
the arms before anything is timed.  Timings interleave the arms across
``--rounds`` repetitions (minimum taken) so machine drift hits both
equally.

Usage::

    PYTHONPATH=src python benchmarks/bench_patch.py
    PYTHONPATH=src python benchmarks/bench_patch.py --json BENCH_patch.json
    PYTHONPATH=src python benchmarks/bench_patch.py --smoke

``--smoke`` runs a reduced-scale pass and exits non-zero when the
selective+patched arm is slower than the wholesale arm on the
small-delta stream (the CI guard), or when any cycle's answers diverge
across the arms.
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import sys
import time
from pathlib import Path

from repro.bench.harness import peak_memory_bytes
from repro.bench.workloads import BENCH_SCALE, bench_graph
from repro.session import ExecutionConfig, MatchSession

from bench_session import WORKLOADS, build_batch

#: Mutation-burst size per cycle — deliberately small relative to the
#: graph (the regime snapshot patching targets; large bursts compact to
#: a flat rebuild and the arms converge).
OPS_PER_CYCLE = 6
CYCLES = 4


def mutate(graph, rng: random.Random, ops: int) -> None:
    """One small mutation burst: mostly edge churn, a little node churn.

    Driven purely by the graph's own state plus ``rng``, so replaying it
    with an equally-seeded generator on a twin graph produces the
    identical stream.
    """
    for _ in range(ops):
        roll = rng.random()
        edges = list(graph.edges())
        if roll < 0.45 and edges:
            graph.remove_edge(*rng.choice(edges))
        elif roll < 0.80 and edges:
            # Remove + re-add: net-zero structure, non-zero delta.
            src, dst = rng.choice(edges)
            graph.remove_edge(src, dst)
            graph.add_edge(src, dst)
        elif roll < 0.90:
            live = [v for v in graph.nodes() if graph.is_live(v)]
            if len(live) >= 2:
                src, dst = rng.choice(live), rng.choice(live)
                if not graph.has_edge(src, dst):
                    graph.add_edge(src, dst)
        elif edges:
            src, dst = rng.choice(edges)
            graph.set_attrs(src, churn=rng.randrange(100))


def run_stream(graph, specs, selective: bool, seed: int, collect: bool = False):
    """One full write-stream pass: warm batch, then mutate/refresh/batch
    cycles.  Returns ``(per_cycle_results, cache_stats)`` when
    ``collect`` else the cache stats alone."""
    config = ExecutionConfig(snapshot_patching=True) if selective else None
    rng = random.Random(seed)
    collected = []
    with MatchSession(graph, config=config, on_mutation="refresh") as session:
        session.run_batch(specs)  # warm: both arms start fully built
        for _ in range(CYCLES):
            mutate(graph, rng, OPS_PER_CYCLE)
            session.refresh()
            results = session.run_batch(specs)
            if collect:
                collected.append(results)
        stats = session.cache_stats()
    return (collected, stats) if collect else stats


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
    base = bench_graph(spec["dataset"], factor)
    specs = build_batch(
        spec["dataset"], spec["shapes"], spec["cyclic"], spec["seeds"], factor
    )
    # Dataset graphs ship frozen; each arm mutates its own thawed twin.
    twin = lambda: pickle.loads(pickle.dumps(base)).thaw()  # noqa: E731

    # Equivalence first: identical streams on twin graphs, identical
    # answers every cycle — nothing is timed until this holds.
    seed = 1_000 + len(figure)
    wholesale_cycles, _ = run_stream(twin(), specs, False, seed, collect=True)
    selective_cycles, selective_stats = run_stream(
        twin(), specs, True, seed, collect=True
    )
    mismatches = sum(
        1
        for w_batch, s_batch in zip(wholesale_cycles, selective_cycles)
        for w, s in zip(w_batch, s_batch)
        if not _same(w, s)
    )

    best = {"wholesale": float("inf"), "selective": float("inf")}
    for round_ in range(rounds):  # interleaved: drift hits both arms equally
        started = time.perf_counter()
        run_stream(twin(), specs, False, seed + round_)
        best["wholesale"] = min(best["wholesale"], time.perf_counter() - started)
        started = time.perf_counter()
        run_stream(twin(), specs, True, seed + round_)
        best["selective"] = min(best["selective"], time.perf_counter() - started)

    # Separate memory pass: tracemalloc slows execution, so it never
    # overlaps the timed rounds above.
    peak_memory = {
        "wholesale": peak_memory_bytes(lambda: run_stream(twin(), specs, False, seed)),
        "selective": peak_memory_bytes(lambda: run_stream(twin(), specs, True, seed)),
    }

    seconds = {arm: round(value, 5) for arm, value in best.items()}
    return {
        "dataset": spec["dataset"],
        "scale_factor": round(factor, 4),
        "graph": {"nodes": base.num_nodes, "edges": base.num_edges},
        "stream": {
            "cycles": CYCLES,
            "ops_per_cycle": OPS_PER_CYCLE,
            "queries_per_cycle": len(specs),
        },
        "stream_seconds": seconds,
        "peak_memory_bytes": peak_memory,
        "speedup": (
            round(seconds["wholesale"] / seconds["selective"], 2)
            if seconds["selective"]
            else None
        ),
        "selective_cache": {
            key: selective_stats[key]
            for key in (
                "selective_refreshes",
                "wholesale_refreshes",
                "artifacts_survived",
                "artifacts_dropped",
            )
        },
        "mismatches": mismatches,
    }


def run(rounds: int = 3, scale_factor: float | None = None) -> dict:
    """Run every workload; returns the result dict (see BENCH_patch.json)."""
    if scale_factor is None:
        scale_factor = 1.0 / BENCH_SCALE
    workloads = {
        figure: _run_case(figure, spec, scale_factor, rounds)
        for figure, spec in WORKLOADS.items()
    }
    return {
        "benchmark": "write-stream-snapshot-patching",
        "config": {
            "cycles": CYCLES,
            "ops_per_cycle": OPS_PER_CYCLE,
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
                        help="reduced-scale pass; fail when the selective+patched "
                             "arm is slower than the wholesale arm")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result dict as JSON to PATH")
    args = parser.parse_args(argv)

    scale_factor = args.scale_factor
    rounds = args.rounds
    if args.smoke and scale_factor is None:
        scale_factor = 1.0  # pytest-suite scale: seconds, not minutes
        rounds = 1  # each round replays two full write streams

    result = run(rounds=rounds, scale_factor=scale_factor)

    failures = 0
    for figure, record in result["workloads"].items():
        sec = record["stream_seconds"]
        mem = record["peak_memory_bytes"]
        cache = record["selective_cache"]
        print(
            f"{figure} ({record['dataset']}): "
            f"{record['stream']['cycles']} cycles x "
            f"{record['stream']['ops_per_cycle']} ops + "
            f"{record['stream']['queries_per_cycle']} queries — "
            f"wholesale {sec['wholesale'] * 1000:8.1f}ms  "
            f"selective {sec['selective'] * 1000:8.1f}ms "
            f"({record['speedup']}x), "
            f"{cache['selective_refreshes']} selective refreshes, "
            f"{cache['artifacts_survived']} survived / "
            f"{cache['artifacts_dropped']} dropped, "
            f"peak mem {mem['wholesale'] / 1e6:.1f}/{mem['selective'] / 1e6:.1f}MB, "
            f"mismatches {record['mismatches']}"
        )
        if record["mismatches"]:
            failures += 1
        if args.smoke and (record["speedup"] is None or record["speedup"] < 1.0):
            print(
                f"  SMOKE FAILURE: selective+patched arm slower than "
                f"wholesale on {figure}"
            )
            failures += 1

    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
