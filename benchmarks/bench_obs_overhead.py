"""Overhead of the observability hooks on the fig 5(d) serving path.

The tracing/metrics subsystem is threaded through every hot layer
(candidate build, fixpoint kernels, the top-k engine, the session
cache).  Its contract is that the *disabled* state — no ambient tracer,
no ambient registry, ``ExecutionConfig`` flags off — costs essentially
nothing: each hook is one contextvar read that returns ``None``.  This
benchmark pins that contract with three arms over the fig 5(d) workload
(YouTube surrogate, cyclic shapes, Match / TopKnopt / TopK):

``stripped``
    The pre-PR baseline, approximated by monkeypatching every
    instrumented module's ``trace`` / ``current_metrics`` /
    ``current_tracer`` / ``instrumentation`` / ``record_run`` globals to
    null implementations for the duration of the run — the hooks
    disappear entirely, as if the PR's call sites were never added.

``disabled``
    The shipped default: hooks present, nothing installed ambiently.
    This is what every user who never opts into observability pays.

``enabled``
    A live ``Tracer`` + ``MetricsRegistry`` installed around the run.
    Reported for information only — enabled cost is a feature price,
    not a regression.

Arms are interleaved across ``--rounds`` repetitions and the median is
reported, so machine drift hits all arms equally.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --json BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke

``--smoke`` runs a reduced-scale pass and exits non-zero when the
disabled arm exceeds the stripped arm by more than 5% plus a small
absolute epsilon (the CI guard against instrumentation creep).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

from repro.bench.harness import run_algorithm
from repro.bench.workloads import BENCH_SCALE, bench_graph, bench_pattern
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

#: Fig 5(d): the cyclic engine-time figure the ISSUE's acceptance
#: criterion names.
WORKLOAD = {
    "dataset": "youtube",
    "cyclic": True,
    "shapes": [(4, 8), (5, 10), (6, 12)],
    "algorithms": ["Match", "TopKnopt", "TopK"],
    "k": 10,
}

#: Every module that gained observability call sites in this PR, with
#: the ``repro.obs`` names it imported.  The stripped arm nulls these
#: module globals so the hooks vanish, approximating the pre-PR code.
INSTRUMENTED_MODULES = {
    "repro.topk.engine": ("trace",),
    "repro.topk.cyclic": ("instrumentation", "record_run"),
    "repro.topk.dag": ("instrumentation", "record_run"),
    "repro.topk.match_all": ("instrumentation", "record_run"),
    "repro.diversify.heuristic": ("instrumentation", "record_run"),
    "repro.diversify.approx": ("instrumentation", "record_run"),
    "repro.simulation.match": ("current_metrics", "trace"),
    "repro.simulation.csr_kernel": ("current_metrics", "trace"),
    "repro.session.cache": ("current_metrics", "trace"),
    "repro.session.session": ("instrumentation", "trace"),
    "repro.incremental.view": ("current_metrics", "trace"),
}


@contextlib.contextmanager
def _null_cm(*args, **kwargs):
    yield None


def _null_lookup():
    return None


def _null_record_run(result, pattern, k, config=None):
    return result


_NULLS = {
    "trace": _null_cm,
    "instrumentation": _null_cm,
    "current_metrics": _null_lookup,
    "current_tracer": _null_lookup,
    "record_run": _null_record_run,
}


@contextlib.contextmanager
def stripped_instrumentation():
    """Null out every observability hook for the duration of the block."""
    import importlib

    saved = []
    try:
        for module_name, names in INSTRUMENTED_MODULES.items():
            module = importlib.import_module(module_name)
            for name in names:
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, _NULLS[name])
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _run_workload(graph, patterns) -> None:
    for pattern in patterns:
        for algorithm in WORKLOAD["algorithms"]:
            run_algorithm(algorithm, pattern, graph, WORKLOAD["k"])


def _arm_once(arm: str, graph, patterns) -> float:
    if arm == "stripped":
        context = stripped_instrumentation()
    elif arm == "enabled":
        context = contextlib.ExitStack()
        context.enter_context(use_tracer(Tracer()))
        context.enter_context(use_metrics(MetricsRegistry()))
    else:  # disabled: the shipped default, nothing installed
        context = contextlib.nullcontext()
    started = time.perf_counter()
    with context:
        _run_workload(graph, patterns)
    return time.perf_counter() - started


def run(rounds: int = 5, scale_factor: float | None = None) -> dict:
    """Run all three arms; returns the result dict (see BENCH_obs.json)."""
    if scale_factor is None:
        # Undo the pytest-suite downscale: benchmark at the full
        # surrogate sizes of EXPERIMENTS.md (~6k nodes).
        scale_factor = 1.0 / BENCH_SCALE
    graph = bench_graph(WORKLOAD["dataset"], scale_factor)
    patterns = [
        bench_pattern(
            WORKLOAD["dataset"], shape[0], shape[1], WORKLOAD["cyclic"], 0, scale_factor
        )
        for shape in WORKLOAD["shapes"]
    ]
    graph.snapshot()  # compiled once up front, as in production use

    arms = ("stripped", "disabled", "enabled")
    timings: dict[str, list[float]] = {arm: [] for arm in arms}
    _run_workload(graph, patterns)  # warm the snapshot-keyed caches
    for _ in range(rounds):  # interleaved: drift hits all arms equally
        for arm in arms:
            timings[arm].append(_arm_once(arm, graph, patterns))

    medians = {arm: round(statistics.median(values), 5) for arm, values in timings.items()}
    overhead = (
        round(medians["disabled"] / medians["stripped"] - 1.0, 4)
        if medians["stripped"]
        else None
    )
    return {
        "benchmark": "observability-overhead",
        "config": {
            "workload": "fig5d",
            "dataset": WORKLOAD["dataset"],
            "shapes": [list(shape) for shape in WORKLOAD["shapes"]],
            "algorithms": WORKLOAD["algorithms"],
            "k": WORKLOAD["k"],
            "rounds": rounds,
            "scale_factor": round(scale_factor, 4),
            "bench_scale": BENCH_SCALE,
        },
        "median_seconds": medians,
        "disabled_overhead": overhead,
    }


#: Smoke gate: disabled must stay within 5% of stripped, plus a small
#: absolute epsilon so sub-100ms smoke runs don't fail on timer noise.
RELATIVE_BUDGET = 0.05
ABSOLUTE_EPSILON_SECONDS = 0.05


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--scale-factor", type=float, default=None,
                        help="workload scale multiplier (default: full surrogate size)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale pass; fail when the disabled arm "
                             "exceeds the stripped arm by more than 5%%")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result dict as JSON to PATH")
    args = parser.parse_args(argv)

    scale_factor = args.scale_factor
    rounds = args.rounds
    if args.smoke and scale_factor is None:
        scale_factor = 1.0  # pytest-suite scale: seconds, not minutes
        rounds = min(rounds, 3)

    result = run(rounds=rounds, scale_factor=scale_factor)

    medians = result["median_seconds"]
    print(
        f"fig5d ({WORKLOAD['dataset']}): "
        f"stripped {medians['stripped'] * 1000:8.1f}ms  "
        f"disabled {medians['disabled'] * 1000:8.1f}ms  "
        f"enabled {medians['enabled'] * 1000:8.1f}ms  "
        f"(disabled overhead {result['disabled_overhead']:+.1%})"
    )

    failures = 0
    budget = medians["stripped"] * (1.0 + RELATIVE_BUDGET) + ABSOLUTE_EPSILON_SECONDS
    if args.smoke and medians["disabled"] > budget:
        print(
            f"  SMOKE FAILURE: disabled arm {medians['disabled']:.5f}s exceeds "
            f"stripped budget {budget:.5f}s"
        )
        failures += 1

    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
