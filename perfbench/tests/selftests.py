"""Self-tests of the benchmark: every workload at tiny scale, the span
self-time arithmetic, a forced wrong answer and a hung pool run.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests/selftests.py

The file name keeps these tests out of the repository's own test run:
they start serving processes and pools and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run as bench  # noqa: E402  (perfbench/run.py)
import serve  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Graph scale of the self-tests: a few hundred nodes per workload.
TINY = 0.08
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {metric["name"] for metric in SPEC[section]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(bench.END_TO_END) == _names("end_to_end")


def test_self_times_partition_the_wall_time():
    spans = []
    for name, start, end, parent in [
        ("bench.request", 0.0, 10.0, -1),
        ("topk.init", 1.0, 4.0, 0),
        ("simulation.fixpoint", 2.0, 3.0, 1),
        ("topk.run", 5.0, 9.0, 0),
    ]:
        span = tracing.Span(name, start, parent, 0)
        span.end = end
        spans.append(span)
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    tracer = tracing.SpanTracer()
    tracer.spans = spans
    layers = tracer.layer_metrics()
    assert layers["trace.wall_s"] == 10.0
    assert layers["topk.init_self_s"] == 2.0
    assert layers["simulation.fixpoint_s"] == 1.0
    assert layers["topk.run_self_s"] == 4.0
    assert layers["trace.unattributed_s"] == 3.0


def test_tracer_wraps_every_binding_and_restores_it():
    from repro.datasets.examples import example7_pattern, figure1
    from repro.session import cache as session_cache
    from repro.simulation import match

    original = match.maximal_simulation
    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        assert session_cache.maximal_simulation is not original
        tracer.active = True
        with tracer.root("bench.request", 0):
            from repro import api

            api.top_k_matches(example7_pattern(), figure1().graph, 2)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert match.maximal_simulation is original
    assert session_cache.maximal_simulation is original
    names = {span.name for span in tracer.spans}
    assert {"api.top_k_matches", "topk.init", "topk.run", "simulation.fixpoint"} <= names
    own = tracing.self_times(tracer.spans)
    assert sum(own) == pytest.approx(tracer.spans[0].duration)
    assert tracer.cache_stats["sim_builds"] == 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_correct_at_tiny_scale(name):
    final, lines = bench.run(name, seed=3, seconds=0.5, trace=0, scale=TINY)
    assert final["correct"], lines
    assert final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in final["metrics"].values()), final

    traced, lines = bench.run(name, seed=3, seconds=0.5, trace=1, scale=TINY)
    assert traced["correct"], lines
    assert set(traced["metrics"]) == _names("per_layer")


def test_traced_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        final, lines = bench.run("fig5e-writes", seed=4, seconds=0.5, trace=1, scale=TINY)
        assert final["correct"], lines
        counts.append({
            key: metric["value"] for key, metric in final["metrics"].items()
            if metric["unit"] in ("count", "ratio") and key != "trace.overhead"
            and not key.startswith("gc.")
        })
    assert counts[0] == counts[1]
    assert counts[0]["topk.runs"] > 0 and counts[0]["session.refreshes_selective"] > 0


def test_forced_wrong_answer_raises_error_rate(monkeypatch):
    from repro.topk.engine import TopKEngine

    run_dir, plan, _ = bench.prepare("fig5e-oneshot", 5, TINY)
    honest = TopKEngine.run

    def wrong(self):
        result = honest(self)
        result.matches = result.matches[1:]
        return result

    monkeypatch.setattr(TopKEngine, "run", wrong)
    try:
        runner = serve.Runner(run_dir)
        result = runner.run_untraced(0.3)
    finally:
        monkeypatch.undo()
        shutil.rmtree(run_dir)
    result.update(attempted=runner.attempted, failed=runner.failed)

    report = bench.check(plan, result, trace=0)
    assert report.failed > 0
    assert (result["failed"] + report.failed) / result["attempted"] > 0


@pytest.mark.parametrize("deadline, stall", [(8.0, None), (120.0, 5.0)],
                         ids=["deadline", "stall"])
def test_hung_pool_run_ends_by_its_deadline(monkeypatch, deadline, stall):
    """A pool worker that never returns: the run is killed at its deadline,
    or once its progress file is ``stall`` seconds old, every operation
    counts as failed and no process survives."""
    seen = {}

    def hanging(run_dir, seconds, trace):
        return [sys.executable, str(HERE / "hang_pool.py"), str(run_dir)]

    original = bench.supervise

    def spy(*args, **kwargs):
        outcome = original(*args, **kwargs)
        seen["outcome"] = outcome
        return outcome

    monkeypatch.setattr(bench, "serving_command", hanging)
    monkeypatch.setattr(bench, "supervise", spy)
    if stall is not None:
        monkeypatch.setattr(bench, "STALL_SECONDS", stall)
    started = time.monotonic()
    final, lines = bench.run("fig5g-pool", seed=1, seconds=0.5, trace=0,
                             scale=TINY, deadline=deadline)
    outcome = seen["outcome"]
    assert outcome.timed_out
    assert outcome.seconds < (stall or deadline) + 30.0
    assert time.monotonic() - started < outcome.seconds + 60.0
    assert not final["correct"]
    assert final["failed"] == final["attempted"] >= 1
    assert bench.group_members(outcome.pgid) == []


def test_deadline_grows_with_the_measured_seconds():
    """A run of the benchmark's length, checks included, ends within 180 s."""
    deadline = bench.DEADLINE_BASE_SECONDS + bench.DEADLINE_PER_SECOND * SPEC["run_seconds"]
    assert deadline + 30.0 <= 180.0
    assert bench.DEADLINE_PER_SECOND >= 2.0


def test_runs_hold_the_minimum_requests_and_spread_their_setups(monkeypatch):
    """The stop rule: at least ``min_requests`` requests, at least
    ``seconds`` of request time, whole passes; setups in every round."""
    run_dir, plan, _ = bench.prepare("fig5e-oneshot", 6, TINY)
    try:
        runner = serve.Runner(run_dir)
        order = []
        setup, request = runner.surface.setup, runner.surface.request
        monkeypatch.setattr(runner.surface, "setup",
                            lambda: order.append("setup") or setup())
        monkeypatch.setattr(runner.surface, "request",
                            lambda index: order.append(index) or request(index))
        result = runner.run_untraced(0.0)
    finally:
        shutil.rmtree(run_dir)
    assert len(result["latencies"]) == plan["min_requests"] > 20
    assert len(result["setup_samples"]) == plan["rounds"] * plan["setups_per_round"]
    per_round = plan["min_requests"] // plan["rounds"]
    setups = [i for i, step in enumerate(order) if step == "setup"]
    assert len(setups) == len(result["setup_samples"])
    assert setups[plan["setups_per_round"]] == plan["setups_per_round"] + per_round
    assert order[-1] == plan["min_requests"] - 1


def test_pool_stream_is_distinct_and_keeps_the_mix():
    import random
    from collections import Counter

    stream = workloads.pool_stream(random.Random(1), 4, 40)
    queries = [spec for batch in stream for spec in batch]
    assert all(len(batch) == workloads.POOL_BATCH for batch in stream)
    assert len({json.dumps(q, sort_keys=True) for q in queries}) == len(queries)
    shares = Counter(q["mode"] if q["mode"] != "diversified" else q["method"] for q in queries)
    mix = Counter(q["mode"] if q["mode"] != "diversified" else q["method"]
                  for q in workloads.serving_mix(4))
    for kind, count in mix.items():
        assert abs(shares[kind] / len(queries) - count / workloads.MIX_SIZE) < 0.02
    assert {q["k"] for q in queries} == set(range(5, 11))
    assert 0.1 <= min(q["lam"] for q in queries) < max(q["lam"] for q in queries) <= 0.9


def test_pool_checks_every_answer_but_a_diversified_sample():
    import checks

    run_dir, plan, _ = bench.prepare("fig5g-pool", 2, TINY)
    shutil.rmtree(run_dir)
    indices = set(range(len(plan["specs"])))
    report = checks.CheckReport()
    kept = checks.sample_pool(plan, indices, report)
    diversified = {i for i in indices if plan["specs"][i]["mode"] == "diversified"}
    assert indices - diversified <= kept
    assert len(kept & diversified) == checks.DIVERSIFIED_SAMPLE
    assert kept == checks.sample_pool(plan, indices, checks.CheckReport())
    topk = dict(plan["specs"][0], mode="topk", multi=False)
    assert checks.reference_key(dict(topk, lam=0.2)) == checks.reference_key(dict(topk, lam=0.7))
    div = dict(topk, mode="diversified")
    assert checks.reference_key(dict(div, lam=0.2)) != checks.reference_key(dict(div, lam=0.7))


def test_a_surviving_process_is_counted_and_killed(monkeypatch):
    monkeypatch.setattr(bench, "EXIT_GRACE_SECONDS", 1.0)
    orphan = "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(120)'])"
    outcome = bench.supervise([sys.executable, "-c", orphan], deadline=30.0)
    assert outcome.returncode == 0 and not outcome.timed_out
    assert outcome.leftovers == 1
    assert bench.group_members(outcome.pgid) == []


def test_entry_modules_do_no_work_at_import():
    code = (
        "import multiprocessing, sys; sys.path[:0] = [sys.argv[1]]; "
        "import run, serve, checks, tracing, workloads; "
        "assert not multiprocessing.active_children()"
    )
    done = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def test_terminated_run_leaves_no_process():
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "fig5e-oneshot",
         "--seed", "1", "--seconds", "60", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    progress = bench.CACHE / "runs" / f"fig5e-oneshot-1-{proc.pid}" / "progress"
    deadline = time.monotonic() + 120
    while not progress.exists():
        assert time.monotonic() < deadline and proc.poll() is None
        time.sleep(0.05)
    (serving,) = _children(proc.pid)
    proc.terminate()
    assert proc.wait(timeout=60) == 128 + 15
    assert bench.group_members(serving) == []
    assert not progress.parent.exists()
