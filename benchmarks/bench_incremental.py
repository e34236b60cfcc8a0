"""Update throughput: incremental MatchView vs recompute-per-update.

The workload the incremental subsystem exists for: one registered
pattern, a stream of single-edge deltas on a synthetic graph, and a
fresh top-k answer required after every update.  Two strategies:

``incremental``
    One :class:`repro.incremental.MatchView`, registered through
    ``repro.api.register_view``; its cache repairs each delta by delta
    simulation as the graph emits it, then the answer is re-ranked from
    the maintained relation.

``recompute``
    The seed library's only option before this subsystem: after each
    delta, recompute candidates + the simulation fixpoint from scratch,
    then rank.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py
    PYTHONPATH=src python benchmarks/bench_incremental.py \\
        --nodes 3000 --edges 12000 --ops 300 --json BENCH_incremental.json

Both strategies answer after every op, and the harness asserts they
return identical relations (spot-checked) — the speedup is not bought
with staleness.  ``BENCH_incremental.json`` in the repo root records the
baseline trajectory for future PRs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import api
from repro.datasets.synthetic import synthetic_graph
from repro.graph.io import from_json_dict, to_json_dict
from repro.ranking.context import RankingContext
from repro.ranking.relevance import top_k_by_relevance
from repro.simulation.match import maximal_simulation
from repro.workloads.pattern_gen import random_cyclic_pattern
from repro.workloads.update_stream import single_edge_stream, stream_summary


def _copy_graph(graph):
    """An independent mutable copy (the two strategies must not share)."""
    return from_json_dict(to_json_dict(graph))


def run(
    num_nodes: int = 1500,
    num_edges: int = 6000,
    num_ops: int = 200,
    k: int = 10,
    pattern_shape: tuple[int, int] = (4, 8),
    seed: int = 0,
    rank_every: int = 1,
    check_every: int = 25,
) -> dict:
    """Run both strategies over the same stream; return the result dict."""
    base = synthetic_graph(num_nodes, num_edges, seed=seed).thaw()
    pattern = random_cyclic_pattern(
        base, pattern_shape[0], pattern_shape[1], seed=seed, min_matches=k
    )
    churn = sorted({pattern.label(u) for u in pattern.nodes()})
    ops = single_edge_stream(base, num_ops, seed=seed + 1, churn_labels=churn)

    # -- incremental ---------------------------------------------------
    inc_graph = _copy_graph(base)
    view = api.register_view(pattern, inc_graph, k=k)
    inc_answers: list[list[int]] = []
    started = time.perf_counter()
    for i, op in enumerate(ops):
        inc_graph.apply_delta([op])
        if (i + 1) % rank_every == 0:
            inc_answers.append(view.top_k().matches)
    inc_elapsed = time.perf_counter() - started

    # -- recompute-per-update ------------------------------------------
    rec_graph = _copy_graph(base)
    rec_answers: list[list[int]] = []
    started = time.perf_counter()
    for i, op in enumerate(ops):
        rec_graph.apply_delta([op])
        if (i + 1) % rank_every == 0:
            result = maximal_simulation(pattern, rec_graph)
            if result.total:
                ctx = RankingContext(pattern, rec_graph, simulation=result)
                rec_answers.append(top_k_by_relevance(ctx, k))
            else:
                rec_answers.append([])
    rec_elapsed = time.perf_counter() - started

    # -- equivalence spot checks ---------------------------------------
    mismatches = sum(
        1
        for i, (a, b) in enumerate(zip(inc_answers, rec_answers))
        if (i + 1) % check_every == 0 and a != b
    )
    if inc_answers and inc_answers[-1] != rec_answers[-1]:
        mismatches += 1

    stats = view.stats
    return {
        "benchmark": "incremental-vs-recompute",
        "config": {
            "nodes": num_nodes,
            "edges": num_edges,
            "ops": num_ops,
            "k": k,
            "pattern_shape": list(pattern.shape),
            "seed": seed,
            "rank_every": rank_every,
            "op_mix": stream_summary(ops),
        },
        "incremental": {
            "elapsed_seconds": round(inc_elapsed, 4),
            "updates_per_second": round(num_ops / inc_elapsed, 2),
            "incremental_ops": stats.incremental_ops,
            "full_recomputes": stats.full_recomputes,
            "pairs_touched": stats.pairs_touched,
            "relation_changes": stats.relation_changes,
        },
        "recompute": {
            "elapsed_seconds": round(rec_elapsed, 4),
            "updates_per_second": round(num_ops / rec_elapsed, 2),
        },
        "speedup": round(rec_elapsed / inc_elapsed, 2) if inc_elapsed else None,
        "answer_mismatches": mismatches,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=1500)
    parser.add_argument("--edges", type=int, default=6000)
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rank-every", type=int, default=1,
                        help="query the top-k answer every N ops (both arms)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result dict as JSON to PATH")
    args = parser.parse_args(argv)

    result = run(
        num_nodes=args.nodes,
        num_edges=args.edges,
        num_ops=args.ops,
        k=args.k,
        seed=args.seed,
        rank_every=args.rank_every,
    )
    inc, rec = result["incremental"], result["recompute"]
    print(f"graph |V|={args.nodes} |E|={args.edges}, "
          f"pattern {tuple(result['config']['pattern_shape'])}, "
          f"{args.ops} single-edge ops, k={args.k}")
    print(f"incremental : {inc['elapsed_seconds']:8.3f}s "
          f"({inc['updates_per_second']:8.1f} updates/s, "
          f"{inc['full_recomputes']} fallback recomputes)")
    print(f"recompute   : {rec['elapsed_seconds']:8.3f}s "
          f"({rec['updates_per_second']:8.1f} updates/s)")
    print(f"speedup     : {result['speedup']:.2f}x, "
          f"answer mismatches: {result['answer_mismatches']}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0 if result["answer_mismatches"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
