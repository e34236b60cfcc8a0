"""Fig. 5(d, e, g) on the benchmark's pinned patterns: TopK vs Match.

For each pinned pattern of the ``fig5d``, ``fig5e`` and ``fig5g``
workloads (``perfbench/workloads.py``, full scale) at k ∈ {5, 10}, this
times one-shot ``repro.api`` calls, best of ``--repeat``:
``top_k_matches`` (``TopK``, or ``TopKDAG`` on DAG patterns) against
``baseline_matches`` (``Match``).  It prints a markdown table of the
time ratio TopK ÷ Match and the match ratio MR = inspected ÷ |Mu| per
case, next to the paper's TopK ≈ 52 % / TopKDAG ≈ 36 % of Match's time
and MR ≈ 45 % / 40 % (Section 6).  Every TopK answer's relevance sum
must equal Match's (Proposition 3); the script exits 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/fig5_table.py [--repeat 3]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from workloads import WORKLOADS, generate_inputs  # noqa: E402

from repro import api  # noqa: E402
from repro.ranking.context import RankingContext  # noqa: E402

FIGURES = (("fig5d", "fig5d-batch"), ("fig5e", "fig5e-oneshot"), ("fig5g", "fig5g-pool"))
KS = (5, 10)
PAPER = {"fig5d": "52 % / 45 %", "fig5e": "36 % / 40 %", "fig5g": "36 % / 40 %"}


def best_of(repeat: int, call):
    best = float("inf")
    result = None
    for _ in range(repeat):
        gc.collect()
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    rows = []
    summary = []
    failures = 0
    for figure, workload in FIGURES:
        graph, patterns = generate_inputs(WORKLOADS[workload])
        graph = graph.freeze()
        graph.snapshot()
        ratios, mrs = [], []
        for index, pattern in enumerate(patterns):
            ctx = RankingContext(pattern, graph)
            for k in KS:
                match_s, baseline = best_of(
                    args.repeat, lambda: api.baseline_matches(pattern, graph, k)
                )
                topk_s, result = best_of(
                    args.repeat, lambda: api.top_k_matches(pattern, graph, k)
                )
                got = sum(len(ctx.relevant[v]) for v in result.matches)
                if got != baseline.total_relevance():
                    failures += 1
                ratio = topk_s / match_s
                mr = result.stats.inspected_matches / baseline.stats.total_matches
                ratios.append(ratio)
                mrs.append(mr)
                rows.append(
                    f"| {figure} | {index} {pattern.shape} | {k} | {result.algorithm} "
                    f"| {match_s * 1e3:.1f} | {topk_s * 1e3:.1f} | {ratio:.2f} | {mr:.2f} |"
                )
        summary.append(
            f"| {figure} | {min(ratios):.2f}–{max(ratios):.2f} "
            f"| {min(mrs):.2f}–{max(mrs):.2f} | {PAPER[figure]} |"
        )

    print("| figure | pattern (nodes, edges) | k | algorithm | Match ms | TopK ms "
          "| TopK ÷ Match | MR |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("| figure | TopK ÷ Match | MR | paper (time / MR) |")
    print("|---|---|---|---|")
    print("\n".join(summary))
    if failures:
        print(f"{failures} case(s) missed Match's relevance sum", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
