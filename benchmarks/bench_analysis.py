"""Analyzer throughput: cold vs findings-cache.

The ``repro.analysis`` core keeps a per-file findings cache (content-
hash keyed, environment-fingerprint scoped).  This benchmark times two
arms over the real ``src/repro`` tree:

``cold``
    Full load + rule execution, no cache — the CI worst case.

``warm``
    A primed cache: every file served from ``findings.json``, rule
    execution skipped entirely.  This is the steady state between
    edits.

Both arms must agree on the findings they produce (asserted every
round before anything is recorded).

Usage::

    PYTHONPATH=src python benchmarks/bench_analysis.py
    PYTHONPATH=src python benchmarks/bench_analysis.py --json analysis.json
    PYTHONPATH=src python benchmarks/bench_analysis.py --smoke

``--smoke`` runs one round and exits non-zero when the warm arm fails
to beat the cold arm, when the warm run is not fully served from the
cache, or when the arms' findings diverge.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.analysis.core import Project, load_project, run_analysis
from repro.analysis.incremental import open_cache
from repro.analysis.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]
TARGET = REPO_ROOT / "src" / "repro"


def _load() -> Project:
    return load_project([TARGET], root=REPO_ROOT)


def _fingerprints(report) -> list[str]:
    return sorted(f.fingerprint() for f in report.all_findings())


def run(rounds: int = 3) -> dict:
    """Time the two arms; returns the result dict (``--json``)."""
    rules = list(ALL_RULES)
    best = {"cold": float("inf"), "warm": float("inf")}
    reference: list[str] | None = None
    files = 0
    warm_hits = 0
    mismatches = 0

    with tempfile.TemporaryDirectory(prefix="repro-analysis-bench-") as tmp:
        cache_dir = Path(tmp)
        for _ in range(rounds):
            # Cold: fresh project, no cache.  Each arm reloads so no arm
            # inherits another's lazily built parent maps.
            started = time.perf_counter()
            project = _load()
            cold_report = run_analysis(project, rules)
            best["cold"] = min(best["cold"], time.perf_counter() - started)
            files = cold_report.files_checked

            # Prime the cache outside the timed region, then time the
            # fully warm pass.
            project = _load()
            cache = open_cache(project, rules, cache_dir)
            run_analysis(project, rules, cache=cache)
            cache.save()
            started = time.perf_counter()
            project = _load()
            cache = open_cache(project, rules, cache_dir)
            warm_report = run_analysis(project, rules, cache=cache)
            best["warm"] = min(best["warm"], time.perf_counter() - started)
            warm_hits = warm_report.cache_hits

            expected = _fingerprints(cold_report)
            if reference is None:
                reference = expected
            if _fingerprints(warm_report) != expected:
                mismatches += 1

    seconds = {arm: round(value, 5) for arm, value in best.items()}
    return {
        "benchmark": "analysis-incremental",
        "config": {
            "rounds": rounds,
            "rules": [rule.id for rule in rules],
            "files": files,
        },
        "seconds": seconds,
        "warm_cache_hits": warm_hits,
        "warm_fully_cached": warm_hits == files,
        "speedup_warm": (
            round(seconds["cold"] / seconds["warm"], 2)
            if seconds["warm"]
            else None
        ),
        "findings": len(reference or []),
        "mismatches": mismatches,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="one round; fail unless the warm arm beats cold "
                             "and is fully served from the cache")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result dict as JSON to PATH")
    args = parser.parse_args(argv)

    rounds = 1 if args.smoke else args.rounds
    result = run(rounds=rounds)

    sec = result["seconds"]
    print(
        f"analysis over {result['config']['files']} files "
        f"({len(result['config']['rules'])} rules): "
        f"cold {sec['cold'] * 1000:8.1f}ms  "
        f"warm {sec['warm'] * 1000:8.1f}ms ({result['speedup_warm']}x, "
        f"{result['warm_cache_hits']} hits), "
        f"{result['findings']} findings, mismatches {result['mismatches']}"
    )

    failures = 0
    if result["mismatches"]:
        print("SMOKE FAILURE: arms disagreed on findings")
        failures += 1
    if args.smoke:
        if not result["warm_fully_cached"]:
            print("SMOKE FAILURE: warm run was not fully served from the cache")
            failures += 1
        if sec["warm"] >= sec["cold"]:
            print("SMOKE FAILURE: cached run no faster than cold run")
            failures += 1

    if args.json:
        Path(args.json).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
