"""Fig. 5(d, e, g) on the benchmark's pinned patterns: TopK vs Match.

For each pinned pattern of the ``fig5d``, ``fig5e`` and ``fig5g``
workloads (``perfbench/workloads.py``, full scale) at k ∈ {5, 10}, this
times one-shot ``repro.api`` calls: ``top_k_matches`` (``TopK``, or
``TopKDAG`` on DAG patterns) against ``baseline_matches`` (``Match``).
The two calls run as ``--repeat`` interleaved pairs, alternating which
runs first, so drift on the host lands on both sides of a pair.  Per
case it prints the median Match and TopK times, the median of the
per-pair ratios TopK ÷ Match, the number of pairs TopK won and the
match ratio MR = inspected ÷ |Mu|; per figure, the median of the
per-case ratios, next to the paper's TopK ≈ 52 % / TopKDAG ≈ 36 % of
Match's time and MR ≈ 45 % / 40 % (Section 6).  Every TopK answer's
relevance sum must equal Match's (Proposition 3); the script exits 1
otherwise.

Usage::

    PYTHONPATH=src python benchmarks/fig5_table.py [--repeat 3]
"""

from __future__ import annotations

import argparse
import gc
import statistics
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


def timed(call):
    gc.collect()
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def paired(repeat: int, match_call, topk_call):
    """``repeat`` interleaved (Match, TopK) timings; every second pair runs
    TopK first.

    Returns both sides' per-pair seconds and each side's last answer.
    """
    match_s, topk_s = [], []
    for index in range(repeat):
        if index % 2:
            topk, result = timed(topk_call)
            match, baseline = timed(match_call)
        else:
            match, baseline = timed(match_call)
            topk, result = timed(topk_call)
        match_s.append(match)
        topk_s.append(topk)
    return match_s, topk_s, baseline, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="interleaved (Match, TopK) pairs per case")
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
                match_s, topk_s, baseline, result = paired(
                    args.repeat,
                    lambda: api.baseline_matches(pattern, graph, k),
                    lambda: api.top_k_matches(pattern, graph, k),
                )
                got = sum(len(ctx.relevant[v]) for v in result.matches)
                if got != baseline.total_relevance():
                    failures += 1
                ratio = statistics.median(t / m for t, m in zip(topk_s, match_s))
                won = sum(t < m for t, m in zip(topk_s, match_s))
                mr = result.stats.inspected_matches / baseline.stats.total_matches
                ratios.append(ratio)
                mrs.append(mr)
                rows.append(
                    f"| {figure} | {index} {pattern.shape} | {k} | {result.algorithm} "
                    f"| {statistics.median(match_s) * 1e3:.1f} "
                    f"| {statistics.median(topk_s) * 1e3:.1f} | {ratio:.2f} "
                    f"| {won}/{args.repeat} | {mr:.2f} |"
                )
        summary.append(
            f"| {figure} | {statistics.median(ratios):.2f} "
            f"| {min(ratios):.2f}–{max(ratios):.2f} "
            f"| {min(mrs):.2f}–{max(mrs):.2f} | {PAPER[figure]} |"
        )

    print("| figure | pattern (nodes, edges) | k | algorithm | Match ms | TopK ms "
          "| TopK ÷ Match | TopK won | MR |")
    print("|---|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("| figure | TopK ÷ Match (median case) | range | MR | paper (time / MR) |")
    print("|---|---|---|---|---|")
    print("\n".join(summary))
    if failures:
        print(f"{failures} case(s) missed Match's relevance sum", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
