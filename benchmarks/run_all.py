"""Regenerate every figure of the paper's evaluation as text tables.

Usage::

    python benchmarks/run_all.py            # bench-scale sweeps (~minutes)
    REPRO_BENCH_SCALE=1.0 python benchmarks/run_all.py   # full surrogates
    python benchmarks/run_all.py --profile  # + cProfile hotspot table

The output is what EXPERIMENTS.md records: per figure, the swept
parameter, the series the paper plots, and the reproduced values.
``--profile`` wraps the sweep in cProfile and prints the top functions
by cumulative time, so hotspot claims are reproducible in one command.  The
counter table it prints alongside — the cache-effectiveness ratios
(snapshot / simulation / evaluation hits vs rebuilds), summed per
algorithm — is read straight from a
:class:`repro.obs.MetricsRegistry` installed ambiently around the
sweep: the same ``repro_engine_*_total`` series any serving deployment
would scrape, not a bench-only side channel.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.harness import exact_objective, run_algorithm
from repro.bench.reporting import format_table
from repro.bench.workloads import BENCH_SCALE, bench_graph, bench_pattern, total_matches
from repro.errors import DatasetError
from repro.obs import MetricsRegistry, use_metrics
from repro.workloads.paper_queries import youtube_q1, youtube_q2


def _algorithms_observed(registry: MetricsRegistry) -> list[str]:
    runs = registry.get("repro_engine_runs_total")
    if runs is None:
        return []
    return sorted({labels["algorithm"] for labels, _ in runs.samples()})


def _counter(registry: MetricsRegistry, field: str, algorithm: str) -> int:
    return int(registry.value(f"repro_engine_{field}_total", algorithm=algorithm))


def _cache_counter_table(registry: MetricsRegistry) -> None:
    print("\n## Cache effectiveness (hits/builds per algorithm, summed over the sweep)\n")
    pairs = (
        ("snapshot_hits", "snapshot_builds"),
        ("sim_hits", "sim_builds"),
        ("paircsr_hits", "paircsr_builds"),
    )
    rows = []
    for name in _algorithms_observed(registry):
        cells = [
            (_counter(registry, hits, name), _counter(registry, builds, name))
            for hits, builds in pairs
        ]
        if not any(hit or build for hit, build in cells):
            continue
        rows.append(
            [name, _counter(registry, "runs", name)]
            + [f"{hit}/{build}" for hit, build in cells]
        )
    if not rows:
        print("(no engine runs recorded)")
        return
    print(format_table(
        ["algorithm", "runs", "snapshot h/b", "sim h/b", "evaluation h/b"],
        rows,
    ))


def _batch_serving_table(registry: MetricsRegistry, workers: int) -> None:
    """Serve one mixed batch serially and pooled; table the merged stats.

    Each row folds every result's :class:`EngineStats` into one
    accumulator via ``EngineStats.merge`` — for the pooled arm those
    stats crossed a process boundary and were republished exactly once
    by the parent, so the merged counters must line up with the serial
    arm's (the equivalence suite asserts the answers do).
    """
    from repro.session import ExecutionConfig, MatchSession, QuerySpec
    from repro.topk.result import EngineStats

    print(f"\n## Batch serving: serial vs {workers}-worker pool (fig5g workload)\n")
    try:
        graph = bench_graph("synthetic-dag", 1.0)
        patterns = [
            bench_pattern("synthetic-dag", 4, 6, False, seed, 1.0)
            for seed in range(3)
        ]
    except DatasetError as exc:
        print(f"(skipped: {exc})")
        return
    specs = [
        QuerySpec(pattern, k=10)
        for pattern in patterns
        for _ in range(4)
    ]
    rows = []
    for arm_workers in (0, workers):
        config = ExecutionConfig(workers=arm_workers)
        with MatchSession(graph, config=config) as session:
            started = time.perf_counter()
            results = session.run_batch(specs)
            wall = time.perf_counter() - started
        merged = EngineStats()
        for result in results:
            parts = result.values() if isinstance(result, dict) else [result]
            for res in parts:
                merged.merge(res.stats)
        rows.append([
            arm_workers,
            len(specs),
            round(wall, 3),
            merged.inspected_matches,
            f"{merged.sim_hits}/{merged.sim_builds}",
            round(merged.elapsed_seconds, 3),
        ])
    print(format_table(
        ["workers", "queries", "wall (s)", "inspected", "sim h/b",
         "engine s (merged)"],
        rows,
    ))


def _write_stream_table(registry: MetricsRegistry) -> None:
    """Serve a short write stream with snapshot patching on; table the
    refresh modes, patch outcomes and artifact survival.

    The sweeps above never mutate, so the ``repro_session_refresh_total``
    and ``repro_snapshot_patch_total`` series a serving deployment
    watches would read zero without this exercise: a few
    mutate → refresh → query cycles under
    ``ExecutionConfig(snapshot_patching=True)``.
    """
    import random

    from repro.session import ExecutionConfig, MatchSession, QuerySpec

    print("\n## Write-stream refresh: selective invalidation + snapshot patching\n")
    try:
        graph = bench_graph("synthetic-dag", 1.0).thaw()
        patterns = [
            bench_pattern("synthetic-dag", 4, 6, False, seed, 1.0)
            for seed in range(3)
        ]
    except DatasetError as exc:
        print(f"(skipped: {exc})")
        return
    specs = [QuerySpec(pattern, k=10) for pattern in patterns]
    rng = random.Random(7)
    config = ExecutionConfig(snapshot_patching=True)
    with MatchSession(graph, config=config, on_mutation="refresh") as session:
        session.run_batch(specs)
        for _ in range(3):
            edges = list(graph.edges())
            for _ in range(4):
                src, dst = rng.choice(edges)
                if graph.has_edge(src, dst):
                    graph.remove_edge(src, dst)
                    graph.add_edge(src, dst)
            session.refresh()
            session.run_batch(specs)
        stats = session.cache_stats()

    def _series(name: str, label: str) -> dict[str, int]:
        metric = registry.get(name)
        if metric is None:
            return {}
        return {labels[label]: int(value) for labels, value in metric.samples()}

    refreshes = _series("repro_session_refresh_total", "mode")
    patches = _series("repro_snapshot_patch_total", "outcome")
    rows = [
        ["refreshes (selective/wholesale)",
         f"{refreshes.get('selective', 0)}/{refreshes.get('wholesale', 0)}"],
        ["snapshot patch outcomes (patched/compacted/rebuilt)",
         f"{patches.get('patched', 0)}/{patches.get('compacted', 0)}"
         f"/{patches.get('rebuilt', 0)}"],
        ["artifacts survived/dropped",
         f"{stats['artifacts_survived']}/{stats['artifacts_dropped']}"],
    ]
    print(format_table(["counter", "value"], rows))


def _worker_series_table(registry: MetricsRegistry) -> None:
    print("\n## Serving-pool workers (repro_worker_* series)\n")
    queries = registry.get("repro_worker_queries_total")
    if queries is None:
        print("(no pooled batches recorded)")
        return
    seconds = registry.get("repro_worker_dispatch_seconds")
    rows = []
    for labels, value in queries.samples():
        worker = labels["worker"]
        snap = (
            seconds.snapshot(worker=worker)
            if seconds is not None
            else {"count": 0, "sum": 0.0}
        )
        rows.append([
            worker,
            int(value),
            int(registry.value("repro_worker_dispatches_total", worker=worker)),
            round(snap["sum"], 3),
        ])
    print(format_table(["worker", "queries", "dispatches", "busy (s)"], rows))


def _cell(record, metric):
    if metric == "time":
        return round(record.elapsed_seconds, 3)
    if metric == "mr":
        return "-" if record.match_ratio is None else round(record.match_ratio, 2)
    raise ValueError(metric)


def sweep(
    title: str,
    dataset: str,
    algorithms: list[str],
    shapes=None,
    ks=None,
    lams=None,
    factors=None,
    cyclic=True,
    metric="time",
    k: int = 10,
    lam: float = 0.5,
) -> None:
    print(f"\n## {title}\n")
    if shapes is not None:
        axis, values = "|Q|", shapes
    elif ks is not None:
        axis, values = "k", ks
    elif lams is not None:
        axis, values = "lambda", lams
    else:
        axis, values = "|G| factor", factors

    rows = []
    for value in values:
        shape = value if shapes is not None else (4, 8 if cyclic else 6)
        this_k = value if ks is not None else k
        this_lam = value if lams is not None else lam
        factor = value if factors is not None else 1.0
        try:
            graph = bench_graph(dataset, factor)
            pattern = bench_pattern(dataset, shape[0], shape[1], cyclic, 0, factor)
        except DatasetError as exc:
            rows.append([value] + [f"skip ({str(exc)[:30]})" for _ in algorithms])
            continue
        mu = total_matches(dataset, (shape[0], shape[1], cyclic, 0), factor)
        row = [value]
        for algorithm in algorithms:
            record = run_algorithm(
                algorithm, pattern, graph, this_k, this_lam, total_matches=mu
            )
            row.append(_cell(record, metric))
        rows.append(row)
    unit = "seconds" if metric == "time" else "MR"
    print(format_table([axis] + [f"{a} ({unit})" for a in algorithms], rows))


def figure_5i() -> None:
    print("\n## Fig 5(i): F(S) TopKDiv vs TopKDH (Amazon, lam=0.5, k=10)\n")
    rows = []
    for shape in [(4, 8), (5, 10), (6, 12)]:
        try:
            graph = bench_graph("amazon")
            pattern = bench_pattern("amazon", shape[0], shape[1], True, 0)
        except DatasetError:
            rows.append([shape, "skip", "skip", "-"])
            continue
        div = run_algorithm("TopKDiv", pattern, graph, 10, 0.5)
        heur = run_algorithm("TopKDH", pattern, graph, 10, 0.5)
        f_div = exact_objective(pattern, graph, div.matches, 10, 0.5)
        f_heur = exact_objective(pattern, graph, heur.matches, 10, 0.5)
        ratio = f_heur / f_div if f_div else float("nan")
        rows.append([shape, round(f_div, 3), round(f_heur, 3), round(ratio, 2)])
    print(format_table(["|Q|", "F(TopKDiv)", "F(TopKDH)", "ratio"], rows))


def figure_4() -> None:
    print("\n## Fig 4: case study (YouTube Q1/Q2, k=2)\n")
    rows = []
    graph = bench_graph("youtube")
    for name, factory in [("Q1 (cyclic)", youtube_q1), ("Q2 (DAG)", youtube_q2)]:
        pattern = factory()
        relevant = run_algorithm("Match", pattern, graph, 2)
        diversified = run_algorithm("TopKDH", pattern, graph, 2, 0.5)
        rows.append(
            [
                name,
                relevant.total_matches,
                str(relevant.matches),
                str(diversified.matches),
            ]
        )
    print(format_table(["pattern", "|Mu|", "top-2 relevant", "top-2 diversified"], rows))


def run_sweeps() -> int:
    print(f"# Evaluation sweep at REPRO_BENCH_SCALE={BENCH_SCALE}")
    cyc_shapes = [(4, 8), (5, 10), (6, 12)]
    dag_shapes = [(4, 6), (6, 9), (8, 12)]
    sweep("Fig 5(a): MR vs |Q| (YouTube, cyclic)", "youtube", ["TopK", "TopKnopt"],
          shapes=cyc_shapes, metric="mr")
    sweep("Fig 5(b): MR vs |Q| (Citation, DAG)", "citation", ["TopKDAG", "TopKDAGnopt"],
          shapes=dag_shapes, cyclic=False, metric="mr")
    sweep("Fig 5(c): MR vs k (Amazon, cyclic)", "amazon", ["TopK", "TopKnopt"],
          ks=[5, 10, 15, 20, 25, 30], metric="mr")
    sweep("Fig 5(d): time vs |Q| (YouTube, cyclic)", "youtube", ["Match", "TopKnopt", "TopK"],
          shapes=cyc_shapes)
    sweep("Fig 5(e): time vs |Q| (Citation, DAG)", "citation", ["Match", "TopKDAGnopt", "TopKDAG"],
          shapes=dag_shapes, cyclic=False)
    sweep("Fig 5(f): time vs k (Amazon, cyclic)", "amazon", ["Match", "TopKnopt", "TopK"],
          ks=[5, 10, 15, 20, 25, 30])
    sweep("Fig 5(g): time vs |G| (synthetic, DAG)", "synthetic-dag",
          ["Match", "TopKDAGnopt", "TopKDAG"], factors=[1.0, 1.4, 1.8, 2.2, 2.6], cyclic=False)
    sweep("Fig 5(h): time vs |G| (synthetic, cyclic)", "synthetic-cyclic",
          ["Match", "TopKnopt", "TopK"], factors=[1.0, 1.4, 1.8, 2.2, 2.6])
    figure_5i()
    sweep("Fig 5(j): time vs |Q| (Citation, diversified)", "citation", ["TopKDiv", "TopKDAGDH"],
          shapes=[(4, 3), (5, 4), (6, 5)], cyclic=False)
    sweep("Fig 5(k): time vs |Q| (YouTube, diversified)", "youtube", ["TopKDiv", "TopKDH"],
          shapes=cyc_shapes)
    sweep("Fig 5(l): time vs |G| (synthetic, diversified)", "synthetic-cyclic",
          ["TopKDiv", "TopKDH"], factors=[1.0, 1.4, 1.8, 2.2, 2.6])
    sweep("lambda sensitivity (Amazon)", "amazon", ["TopKDiv", "TopKDH"],
          lams=[0.0, 0.25, 0.5, 0.75, 1.0])
    figure_4()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the sweep under cProfile and print the hottest functions",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="how many rows of the cumulative-time table to print (default 25)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="with --profile: also serve a batch through an N-worker pool "
             "and table the merged EngineStats + per-worker series",
    )
    args = parser.parse_args(argv)

    if not args.profile:
        return run_sweeps()

    import cProfile
    import pstats

    registry = MetricsRegistry()
    profiler = cProfile.Profile()
    profiler.enable()
    with use_metrics(registry):
        status = run_sweeps()
        _write_stream_table(registry)
        if args.workers >= 2:
            _batch_serving_table(registry, args.workers)
    profiler.disable()
    _cache_counter_table(registry)
    if args.workers >= 2:
        _worker_series_table(registry)
    print("\n## cProfile: top functions by cumulative time\n")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.profile_top)
    return status


if __name__ == "__main__":
    sys.exit(main())
