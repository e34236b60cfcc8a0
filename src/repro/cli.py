"""Command-line interface: generate data, run queries, inspect graphs.

Examples::

    python -m repro generate --dataset youtube --scale 0.5 --out yt.json
    python -m repro info --graph yt.json
    python -m repro match --graph yt.json --pattern q1.json --k 10
    python -m repro match --graph yt.json --pattern q1.json --k 10 \\
        --diversify --lam 0.5
    python -m repro match --graph yt.json --pattern q1.json --algorithm Match
    python -m repro match --graph yt.json --pattern q1.json --trace out.jsonl
    python -m repro batch --graph yt.json --queries batch.json --json
    python -m repro batch --graph yt.json --queries batch.json --slow-query 0.5
    python -m repro metrics --graph yt.json --pattern q1.json --format prometheus
    python -m repro update-stream --graph yt.json --pattern q1.json \\
        --deltas updates.jsonl --k 10

``--trace FILE`` records the run's phase spans (repro-trace-v1 JSON
lines, see :mod:`repro.obs`); the span count goes to stderr so ``--json``
output stays parseable.  The ``metrics`` subcommand runs a query under a
fresh metrics registry and prints the Prometheus text exposition (or
JSON with ``--format json``).

Pattern files use the JSON schema of :mod:`repro.patterns.io`; delta
files are JSON lines in the schema of :mod:`repro.graph.delta`.

Batch files (the ``batch`` subcommand) describe one query batch served
through a single :class:`repro.session.MatchSession`::

    {
      "format": "repro-batch-json",
      "queries": [
        {"pattern": "q1.json", "k": 10},
        {"pattern": "q1.json", "k": 5, "mode": "diversified", "lam": 0.3,
         "method": "approx"},
        {"pattern": {... inline repro-pattern-json document ...},
         "mode": "multi"}
      ]
    }

``pattern`` is a path (relative to the batch file) or an inline pattern
document; ``mode`` is one of ``topk`` (default), ``diversified``,
``baseline``, ``multi``; ``k`` / ``lam`` default to the command-line
``--k`` / ``--lam``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from repro.bench.harness import ALGORITHMS, run_algorithm
from repro.datasets import load_dataset
from repro.datasets.synthetic import synthetic_graph
from repro.graph.delta import load_delta_file
from repro.graph.io import load_json, save_json
from repro.graph.statistics import graph_stats
from repro.patterns.io import load_pattern


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "synthetic":
        graph = synthetic_graph(
            args.nodes, args.edges, seed=args.seed, cyclic=not args.dag
        )
    else:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed or None)
    save_json(graph, args.out)
    print(f"wrote {args.out}: |V|={graph.num_nodes}, |E|={graph.num_edges}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    stats = graph_stats(graph)
    print(f"|V| = {stats.num_nodes}")
    print(f"|E| = {stats.num_edges}")
    print(f"labels = {stats.num_labels}")
    print(f"out-degree: max={stats.out_degree.maximum} mean={stats.out_degree.mean:.2f}")
    print(f"SCCs: {stats.num_sccs} (largest {stats.largest_scc})")
    histogram = sorted(graph.label_histogram().items(), key=lambda kv: -kv[1])
    for label, count in histogram[:10]:
        print(f"  {label}: {count}")
    return 0


@contextmanager
def _maybe_tracing(path: str | None):
    """Record the block's spans into ``path`` (JSON lines) when given.

    The span count goes to stderr so ``--json`` stdout stays parseable.
    """
    if not path:
        yield None
        return
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        yield tracer
    count = tracer.export_jsonl(path)
    print(f"wrote {count} spans to {path}", file=sys.stderr)


def _cmd_match(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    pattern = load_pattern(args.pattern)

    if args.algorithm:
        algorithm = args.algorithm
    elif args.diversify:
        algorithm = "TopKDAGDH" if pattern.is_dag() else "TopKDH"
    else:
        algorithm = "TopKDAG" if pattern.is_dag() else "TopK"

    with _maybe_tracing(args.trace):
        record = run_algorithm(algorithm, pattern, graph, args.k, args.lam)
    payload = {
        "algorithm": record.algorithm,
        "k": args.k,
        "matches": [
            {"node": v, "label": graph.label(v), **dict(graph.attrs(v))}
            for v in record.matches
        ],
        "inspected_matches": record.inspected_matches,
        "terminated_early": record.terminated_early,
        "elapsed_seconds": round(record.elapsed_seconds, 4),
    }
    if record.objective_value is not None:
        payload["objective_value"] = round(record.objective_value, 4)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{record.algorithm}: {len(record.matches)} matches "
              f"in {record.elapsed_seconds:.3f}s "
              f"(inspected {record.inspected_matches}"
              f"{', early' if record.terminated_early else ''})")
        for entry in payload["matches"]:
            attrs = {k: v for k, v in entry.items() if k != "node"}
            print(f"  #{entry['node']}: {attrs}")
        if record.objective_value is not None:
            print(f"F(S) = {record.objective_value:.4f}")
    return 0


BATCH_FORMAT = "repro-batch-json"


def load_batch_file(path: str) -> list[dict]:
    """Parse a batch file into per-query spec dicts (patterns loaded).

    Relative pattern paths resolve against the batch file's directory.
    """
    from pathlib import Path

    from repro.errors import MatchingError
    from repro.patterns.io import load_pattern, pattern_from_dict

    doc_path = Path(path)
    payload = json.loads(doc_path.read_text())
    if payload.get("format") != BATCH_FORMAT:
        raise MatchingError(f"not a {BATCH_FORMAT} document: {path}")
    queries = payload.get("queries")
    if not isinstance(queries, list) or not queries:
        raise MatchingError(f"batch file has no queries: {path}")
    allowed_keys = {"pattern", "k", "mode", "lam", "method", "output_node"}
    specs: list[dict] = []
    for index, entry in enumerate(queries):
        if not isinstance(entry, dict) or "pattern" not in entry:
            raise MatchingError(f"batch query #{index} has no pattern")
        unknown = sorted(set(entry) - allowed_keys)
        if unknown:
            raise MatchingError(
                f"batch query #{index} has unknown keys {unknown}; "
                f"expected a subset of {sorted(allowed_keys)}"
            )
        source = entry["pattern"]
        if isinstance(source, dict):
            pattern = pattern_from_dict(source)
        else:
            pattern_path = Path(source)
            if not pattern_path.is_absolute():
                pattern_path = doc_path.parent / pattern_path
            pattern = load_pattern(pattern_path)
        spec = {key: value for key, value in entry.items() if key != "pattern"}
        spec["pattern"] = pattern
        specs.append(spec)
    return specs


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.session import ExecutionConfig, MatchSession, QuerySpec

    graph = load_json(args.graph)
    entries = load_batch_file(args.queries)
    config = ExecutionConfig(
        slow_query_seconds=args.slow_query,
        workers=args.workers,
    )
    specs = [
        QuerySpec(
            pattern=entry["pattern"],
            k=int(entry.get("k", args.k)),
            mode=entry.get("mode", "topk"),
            lam=float(entry.get("lam", args.lam)),
            method=entry.get("method", "heuristic"),
            output_node=entry.get("output_node"),
        )
        for entry in entries
    ]

    with _maybe_tracing(args.trace), MatchSession(graph, config=config) as session:
        results = session.run_batch(specs)
        cache_stats = session.cache_stats()

    payload_queries = []
    for spec, result in zip(specs, results):
        if isinstance(result, dict):  # multi-output fan-out
            entry = {
                "mode": spec.mode,
                "k": spec.k,
                "outputs": {
                    str(node): {
                        "algorithm": res.algorithm,
                        "matches": list(res.matches),
                        "scores": {str(v): res.scores[v] for v in res.matches},
                    }
                    for node, res in result.items()
                },
            }
        else:
            entry = {
                "mode": spec.mode,
                "k": spec.k,
                "algorithm": result.algorithm,
                "matches": list(result.matches),
                "scores": {str(v): result.scores[v] for v in result.matches},
                "elapsed_seconds": round(result.stats.elapsed_seconds, 4),
            }
            if result.objective_value is not None:
                entry["objective_value"] = round(result.objective_value, 4)
        payload_queries.append(entry)
    payload = {
        "queries": payload_queries,
        "session": {"cache": cache_stats, "workers": args.workers},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for index, entry in enumerate(payload_queries):
            if "outputs" in entry:
                outs = ", ".join(
                    f"uo={node}: {info['matches']}"
                    for node, info in entry["outputs"].items()
                )
                print(f"#{index} [{entry['mode']}] {outs}")
            else:
                print(
                    f"#{index} [{entry['algorithm']}] k={entry['k']}: "
                    f"{entry['matches']}"
                )
        hits = sum(v for key, v in cache_stats.items() if key.endswith("_hits"))
        builds = sum(v for key, v in cache_stats.items() if key.endswith("_builds"))
        print(
            f"session: {len(payload_queries)} queries, "
            f"cache {hits} hits / {builds} builds"
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import MetricsRegistry, use_metrics

    graph = load_json(args.graph)
    pattern = load_pattern(args.pattern)
    if args.algorithm:
        algorithm = args.algorithm
    else:
        algorithm = "TopKDAG" if pattern.is_dag() else "TopK"
    registry = MetricsRegistry()
    with use_metrics(registry):
        for _ in range(max(1, args.repeat)):
            run_algorithm(algorithm, pattern, graph, args.k, args.lam)
    if args.format == "json":
        text = registry.dump_json()
    else:
        text = registry.render_prometheus()
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_update_stream(args: argparse.Namespace) -> int:
    from repro import api

    graph = load_json(args.graph)
    pattern = load_pattern(args.pattern)
    ops = load_delta_file(args.deltas)

    view = api.register_view(
        pattern,
        graph,
        k=args.k,
        name="cli",
        lam=args.lam,
        recompute_threshold=args.recompute_threshold,
    )
    api.update_graph(graph, ops)
    result = view.diversified() if args.diversify else view.top_k()

    stats = view.stats
    payload = {
        "algorithm": result.algorithm,
        "k": args.k,
        "ops_replayed": len(ops),
        "matches": [
            {"node": v, "label": graph.label(v), "score": round(result.scores.get(v, 0.0), 4)}
            for v in result.matches
        ],
        "view": {
            "total": view.total,
            "ops_applied": stats.ops_applied,
            "ops_skipped": stats.ops_skipped,
            "incremental_ops": stats.incremental_ops,
            "full_recomputes": stats.full_recomputes,
            "pairs_touched": stats.pairs_touched,
            "relation_changes": stats.relation_changes,
        },
    }
    if result.objective_value is not None:
        payload["objective_value"] = round(result.objective_value, 4)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{result.algorithm}: replayed {len(ops)} ops "
            f"({stats.incremental_ops} incremental, "
            f"{stats.full_recomputes} recomputes, "
            f"{stats.ops_skipped} skipped), "
            f"{len(result.matches)} matches"
        )
        for entry in payload["matches"]:
            print(f"  #{entry['node']} ({entry['label']}): {entry['score']}")
        if result.objective_value is not None:
            print(f"F(S) = {result.objective_value:.4f}")
    if args.out:
        save_json(graph, args.out)
        print(f"wrote updated graph to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diversified top-k graph pattern matching (VLDB 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset surrogate")
    gen.add_argument("--dataset", default="synthetic",
                     choices=["synthetic", "amazon", "citation", "youtube"])
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--nodes", type=int, default=6000, help="synthetic only")
    gen.add_argument("--edges", type=int, default=27000, help="synthetic only")
    gen.add_argument("--dag", action="store_true", help="synthetic only: acyclic")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="summarise a graph JSON file")
    info.add_argument("--graph", required=True)
    info.set_defaults(func=_cmd_info)

    match = sub.add_parser("match", help="run (diversified) top-k matching")
    match.add_argument("--graph", required=True)
    match.add_argument("--pattern", required=True)
    match.add_argument("--k", type=int, default=10)
    match.add_argument("--lam", type=float, default=0.5)
    match.add_argument("--diversify", action="store_true",
                       help="optimise F (topKDP) instead of relevance alone")
    match.add_argument("--algorithm", choices=list(ALGORITHMS),
                       help="force a specific algorithm")
    match.add_argument("--trace", metavar="FILE",
                       help="record the run's phase spans as JSON lines here")
    match.add_argument("--json", action="store_true", help="machine-readable output")
    match.set_defaults(func=_cmd_match)

    batch = sub.add_parser(
        "batch",
        help="serve a query batch through one MatchSession (shared snapshot)",
    )
    batch.add_argument("--graph", required=True)
    batch.add_argument("--queries", required=True,
                       help="repro-batch-json file (see module docstring)")
    batch.add_argument("--k", type=int, default=10,
                       help="default k for queries that do not set one")
    batch.add_argument("--lam", type=float, default=0.5,
                       help="default lambda for diversified queries")
    batch.add_argument("--trace", metavar="FILE",
                       help="record the batch's phase spans as JSON lines here")
    batch.add_argument("--workers", type=int, default=0, metavar="N",
                       help="serve the batch through N worker processes "
                            "(0/1: serial in-process; answers identical)")
    batch.add_argument("--slow-query", type=float, default=None, metavar="SECONDS",
                       help="WARN on the repro.slowquery logger when a query "
                            "exceeds this many seconds")
    batch.add_argument("--json", action="store_true", help="machine-readable output")
    batch.set_defaults(func=_cmd_batch)

    metrics = sub.add_parser(
        "metrics",
        help="run a query under a fresh metrics registry and print the export",
    )
    metrics.add_argument("--graph", required=True)
    metrics.add_argument("--pattern", required=True)
    metrics.add_argument("--k", type=int, default=10)
    metrics.add_argument("--lam", type=float, default=0.5)
    metrics.add_argument("--algorithm", choices=list(ALGORITHMS),
                         help="force a specific algorithm")
    metrics.add_argument("--repeat", type=int, default=1,
                         help="run the query this many times (histogram samples)")
    metrics.add_argument("--format", choices=["prometheus", "json"],
                         default="prometheus")
    metrics.add_argument("--out", help="write the export here instead of stdout")
    metrics.set_defaults(func=_cmd_metrics)

    stream = sub.add_parser(
        "update-stream",
        help="replay a delta file against a materialized match view",
    )
    stream.add_argument("--graph", required=True)
    stream.add_argument("--pattern", required=True)
    stream.add_argument("--deltas", required=True,
                        help="JSON-lines delta file (repro.graph.delta schema)")
    stream.add_argument("--k", type=int, default=10)
    stream.add_argument("--lam", type=float, default=0.5)
    stream.add_argument("--diversify", action="store_true",
                        help="rank the final answer with topKDP instead of topKP")
    stream.add_argument("--recompute-threshold", type=int, default=None,
                        help="touched-frontier size forcing a full recompute")
    stream.add_argument("--out", help="write the updated graph JSON here")
    stream.add_argument("--json", action="store_true", help="machine-readable output")
    stream.set_defaults(func=_cmd_update_stream)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
