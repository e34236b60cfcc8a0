"""Fig. 5 serving benchmark: one command, four workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5d-batch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with observability off.
``--trace 1`` is the separate traced run: it serves a fixed number of
requests untraced and then traced, and reports per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
each metric with its unit, sample count and percentile rank.

This process generates the inputs (cached per source tree under
``.perfbench-cache/``), starts ``serve.py`` in a fresh process group
with a deadline, checks every answer afterwards, and makes sure that
no process of the run outlives it.  Past the deadline it kills the
serving process tree and counts the run's operations as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"

#: The serving process's deadline is ``DEADLINE_BASE_SECONDS`` plus
#: ``DEADLINE_PER_SECOND`` times ``--seconds``: room for the setups, the
#: fixed request count of a traced run and a program twice as slow as
#: this commit's, whose serving processes run for about 20-45 s.
DEADLINE_BASE_SECONDS = 120.0
DEADLINE_PER_SECOND = 2.0
#: A serving process that reports no finished setup or request for this
#: long is taken for hung: ten times this commit's slowest request.
STALL_SECONDS = 100.0
#: How long a finished run's processes get to exit before being killed.
EXIT_GRACE_SECONDS = 10.0

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def files_digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def source_digest() -> str:
    """Digest of the program and of the workload definitions."""
    return files_digest(sorted((ROOT / "src" / "repro").rglob("*.py")) + [HERE / "workloads.py"])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def pinned_inputs(name: str, scale: float) -> Path:
    """Directory holding the workload's generated graph and patterns.

    Generated once per source tree and reused by later runs: extracting
    the fig5d patterns runs simulations for seconds.
    """
    import workloads
    from repro.graph.io import save_json
    from repro.patterns.io import pattern_to_dict

    workload = workloads.WORKLOADS[name]
    key = hashlib.sha256(
        repr((workload.dataset, workload.nodes, workload.edges,
              workload.cyclic_patterns, workload.shapes, scale,
              source_digest())).encode()
    ).hexdigest()[:16]
    target = CACHE / "inputs" / f"{workload.dataset}-{key}"
    if not (target / "patterns.json").is_file():
        graph, patterns = workloads.generate_inputs(workload, scale)
        staging = CACHE / "inputs" / f".{target.name}.{os.getpid()}"
        staging.mkdir(parents=True, exist_ok=True)
        save_json(graph, staging / "graph.json")
        (staging / "patterns.json").write_text(
            json.dumps([pattern_to_dict(p) for p in patterns])
        )
        try:
            staging.rename(target)
        except OSError:  # another run won the race; its files are identical
            shutil.rmtree(staging, ignore_errors=True)
    return target


def prepare(name: str, seed: int, scale: float = 1.0) -> tuple[Path, dict[str, Any], str]:
    """Write the run's plan; returns ``(run directory, plan, input digest)``."""
    import workloads
    from repro.graph.io import load_json
    from repro.patterns.io import pattern_from_dict

    inputs = pinned_inputs(name, scale)
    graph_path = inputs / "graph.json"
    graph = load_json(graph_path)
    patterns = [pattern_from_dict(p) for p in json.loads((inputs / "patterns.json").read_text())]
    plan = workloads.build_plan(name, seed, graph, patterns)
    plan["graph_path"] = str(graph_path)
    run_dir = CACHE / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "plan.json").write_text(json.dumps(plan))
    return run_dir, plan, workloads.digest(graph_path.read_bytes(), plan)


# ----------------------------------------------------------------------
# the serving process and its process group
# ----------------------------------------------------------------------
def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


@dataclass
class Outcome:
    pgid: int
    returncode: int
    timed_out: bool
    leftovers: int
    seconds: float


def supervise(argv: list[str], deadline: float, env: dict[str, str] | None = None,
              progress: Path | None = None) -> Outcome:
    """Run ``argv`` in its own process group and leave nothing behind.

    The whole group is killed past ``deadline`` seconds, or once the
    file ``progress`` (or, before it exists, the start) is older than
    ``STALL_SECONDS``.  After the leader exits, the group gets
    ``EXIT_GRACE_SECONDS`` to empty; every process still alive then is
    counted and killed.
    """
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, start_new_session=True)
    last = time.time()
    timed_out = False
    try:
        while proc.poll() is None:
            if progress is not None and progress.is_file():
                last = max(last, progress.stat().st_mtime)
            if time.monotonic() - started > deadline or time.time() - last > STALL_SECONDS:
                timed_out = True
                kill_group(proc.pid)
                proc.wait()
                break
            time.sleep(0.1)
    except BaseException:  # interrupted or terminated: take the group along
        kill_group(proc.pid)
        proc.wait()
        raise
    if not wait_group(proc.pid):
        leftovers = len(group_members(proc.pid))
        kill_group(proc.pid)
        wait_group(proc.pid)
    else:
        leftovers = 0
    return Outcome(proc.pid, proc.returncode, timed_out, leftovers,
                   time.monotonic() - started)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group(pgid: int) -> bool:
    """Wait up to ``EXIT_GRACE_SECONDS`` for the group to empty."""
    grace = time.monotonic() + EXIT_GRACE_SECONDS
    while group_members(pgid):
        if time.monotonic() > grace:
            return False
        time.sleep(0.02)
    return True


def serving_command(run_dir: Path, seconds: float, trace: int) -> list[str]:
    return [sys.executable, str(HERE / "serve.py"), "--run-dir", str(run_dir),
            "--seconds", str(seconds), "--trace", str(trace)]


def serving_env() -> dict[str, str]:
    """The serving process's environment: observability off, hashing pinned.

    ``REPRO_*`` variables are dropped, so the slow-query log keeps its
    disabled default and no benchmark scale leaks in.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ----------------------------------------------------------------------
# checks and metrics
# ----------------------------------------------------------------------
def check(plan: dict[str, Any], result: dict[str, Any], trace: int) -> Any:
    import checks
    import workloads
    from repro.graph.io import load_json

    patterns, specs = workloads.materialise(plan)
    report = checks.CheckReport()
    if trace:
        runs = [("untraced", result["warm"], result["fingerprints"]),
                ("traced", result["warm_traced"], result["fingerprints_traced"])]
        if result["fingerprints"] != result["fingerprints_traced"] or (
            result["warm"] != result["warm_traced"]
        ):
            report.fail(1, "traced answers differ from untraced answers")
    else:
        runs = [("measured", result["warm"], result["fingerprints"])]

    def load_graph() -> Any:
        return load_json(plan["graph_path"])

    # Queries served on the pinned graph (all of them, except write-stream
    # cycles) are checked against one-shot references.  Those depend on
    # the program and the inputs, both fixed by the inputs directory's
    # key, and on the checks: they are kept beside the inputs.
    writes = plan["surface"] == "writes"
    served = plan["requests"][: max(len(fingerprints) for _, _, fingerprints in runs)]
    indices = set(plan["warm"])
    if not writes:
        indices.update(i for request in served for i in request)
    if plan["surface"] == "pool":
        indices = checks.sample_pool(plan, indices, report)
    checker = files_digest([HERE / "checks.py", HERE / "serve.py"])
    store = Path(plan["graph_path"]).with_name(f"references-{checker}.json")
    references = json.loads(store.read_text()) if store.is_file() else {}
    known = len(references)
    expected = checks.one_shot_references(
        plan, indices, load_graph, patterns, specs, report, references
    )
    if len(references) != known:
        staging = store.with_name(f".{store.name}.{os.getpid()}")
        staging.write_text(json.dumps(references))
        staging.replace(store)
    for run in runs:
        label, warm, fingerprints = run
        if warm:
            checks.compare(report, [plan["warm"]], [warm], expected, f"{label} warm")
        if writes:
            checks.check_cycle(plan, load_graph, patterns, specs, run, report)
        else:
            checks.compare(report, plan["requests"], fingerprints, expected, label)
    return report


def beyond(samples: int, percent: int) -> int:
    """How many of ``samples`` sorted samples lie above their ``percent``-th
    percentile (the sample at rank ceil(percent/100 * samples))."""
    return samples - -(-percent * samples // 100)


def end_to_end(result: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    latencies = sorted(result["latencies"])
    memory = result["memory"]
    n = len(latencies)
    metrics = {
        "throughput_qps": result["answered"] / result["busy_s"] if result["busy_s"] else 0.0,
        "latency_p50_ms": 1000.0 * median(latencies) if latencies else 0.0,
        "setup_s": median(result["setup_samples"]),
        "peak_mem_mb": memory["runner_mb"] + sum(memory["workers_mb"]),
    }
    lines = [
        f"  throughput_qps  {metrics['throughput_qps']:12.4f} 1/s  "
        f"({result['answered']} queries / {result['busy_s']:.3f} s inside requests)",
        f"  latency_p50_ms  {metrics['latency_p50_ms']:12.4f} ms   "
        f"(p50 of {n} requests, at least {result['min_requests']} per run; "
        f"{beyond(n, 50)} samples beyond it)",
    ]
    # The highest percentile with ten samples beyond it, if any.
    rank = next((r for r in (99, 95, 90) if beyond(n, r) >= 10), None)
    if rank is not None:
        tail = latencies[n - beyond(n, rank) - 1] * 1000.0
        lines.append(f"  latency_p{rank}_ms  {tail:12.4f} ms   (p{rank} of {n} requests, "
                     f"{beyond(n, rank)} beyond it; not in the JSON line)")
    else:
        lines.append(f"  latency_p90_ms  {'-':>12}      "
                     f"(p90 of {n} requests would have {beyond(n, 90)} samples beyond it)")
    lines += [
        f"  setup_s         {metrics['setup_s']:12.4f} s    "
        f"(median of {len(result['setup_samples'])} setups spread over the run: "
        + ", ".join(f"{s:.4f}" for s in result["setup_samples"]) + ")",
        f"  peak_mem_mb     {metrics['peak_mem_mb']:12.2f} MB   "
        f"(serving process {memory['runner_mb']:.1f} + "
        f"{len(memory['workers_mb'])} workers "
        + " + ".join(f"{w:.1f}" for w in memory["workers_mb"]) + ")",
    ]
    return metrics, lines


def run(name: str, seed: int, seconds: float, trace: int, scale: float = 1.0,
        deadline: float | None = None) -> tuple[dict[str, Any], list[str]]:
    """One benchmark run; returns the final JSON object and report lines."""
    run_dir, plan, input_digest = prepare(name, seed, scale)
    try:
        import numpy

        lines = [
            f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace} "
            f"cpus={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} git={git_sha()} inputs={input_digest}",
        ]
        if deadline is None:
            deadline = DEADLINE_BASE_SECONDS + DEADLINE_PER_SECOND * seconds
        progress = run_dir / "progress"
        outcome = supervise(
            serving_command(run_dir, seconds, trace), deadline, serving_env(), progress
        )
        result_path = run_dir / "result.json"
        if outcome.timed_out or outcome.returncode != 0 or not result_path.is_file():
            attempted = max(1, int(progress.read_text() or 1) if progress.is_file() else 1)
            how = ("hit its deadline or stalled" if outcome.timed_out
                   else f"exited with code {outcome.returncode}")
            lines.append(f"  FAILED: serving process {how} after {outcome.seconds:.1f} s; "
                         f"{outcome.leftovers} leftover processes; every operation "
                         "counts as failed")
            return {"correct": False, "attempted": attempted, "failed": attempted,
                    "metrics": {}}, lines

        result = json.loads(result_path.read_text())
        checking = time.monotonic()
        report = check(plan, result, trace)
        lines.append(f"  wall: serving process {outcome.seconds:.1f} s, "
                     f"checks {time.monotonic() - checking:.1f} s")
        warm = len(plan["warm"]) * (2 if trace else 1)
        attempted = result["attempted"] + warm
        failed = result["failed"] + report.failed + outcome.leftovers
        units = per_layer_units() if trace else END_TO_END
        if trace:
            metrics = {key: result["layers"][key] for key in units}
            lines += [f"  {key:38s} {metrics[key]:14.6g} {units[key]}" for key in units]
            spans = CACHE / "traces" / f"{name}-seed{seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(result["spans_file"], spans)
            lines.append(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            metrics, metric_lines = end_to_end(result)
            lines += metric_lines
        lines.append(
            f"  error_rate      {failed / attempted:12.4f}      "
            f"({failed} failed / {attempted} attempted; {report.checked} answers "
            f"checked; {outcome.leftovers} leftover processes)"
        )
        lines += [f"  check: {note}" for note in report.notes]
        lines += [f"  FAILED: {reason}" for reason in report.reasons]
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()},
        }, lines
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its serving process group (supervise).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    final, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
