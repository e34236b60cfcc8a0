"""The benchmark's serving process: set up one workload, serve it, report.

``run.py`` starts this module as its own process, in a fresh process
group, and reads back ``result.json`` from the run directory.  It is
the only process (with the pool's workers) whose time and memory are
measured: input generation and the answer checks stay in ``run.py``.

The load is a closed loop with one client: the next request goes out
only when the previous one has returned.  Each request starts from a
full garbage collection, and its answers are reduced to fingerprints
right after it returns, outside the timed region, and then dropped.

Usage (normally through ``run.py``)::

    python3 perfbench/serve.py --run-dir DIR --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

#: Algorithms of the early-terminating engine (their EngineStats count
#: towards the topk layer and the match ratio).
ENGINE_ALGORITHMS = ("TopK", "TopKDAG", "TopKDH", "TopKDAGDH")
#: How long closed sessions get to let their pool workers exit.
CHILD_EXIT_SECONDS = 10.0


def fingerprint(answer: Any) -> str:
    """A digest of one answer: matches in order plus their scores."""
    if isinstance(answer, dict):
        body = repr(sorted((node, fingerprint(res)) for node, res in answer.items()))
    else:
        body = repr((list(answer.matches), sorted(answer.scores.items())))
    return hashlib.blake2b(body.encode(), digest_size=8).hexdigest()


def vm_hwm_mb(pid: int | str) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reap_children(timeout: float = CHILD_EXIT_SECONDS) -> int:
    """Wait for every child process to exit; kill and count stragglers."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    survivors = multiprocessing.active_children()
    for child in survivors:
        child.kill()
        child.join(5)
    return len(survivors)


class Surface:
    """One serving surface: how a workload sets up and issues requests."""

    def __init__(self, plan: dict[str, Any], graph_path: Path) -> None:
        from workloads import materialise

        self.plan = plan
        self.graph_path = graph_path
        self.patterns, self.specs = materialise(plan)
        self.graph: Any = None
        self.session: Any = None

    def load(self, freeze: bool = True) -> None:
        from repro.graph import io

        graph = io.load_json(self.graph_path)
        self.graph = graph.freeze() if freeze else graph
        self.graph.snapshot()

    def setup(self) -> list[Any]:
        """Program-side setup; returns the answers of a warm batch, if any."""
        self.load()
        return []

    def request(self, index: int) -> list[Any]:
        raise NotImplementedError

    def batch(self, index: int) -> list[Any]:
        return [self.specs[i] for i in self.plan["requests"][index]]

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        self.session = None
        self.graph = None


class BatchSurface(Surface):
    """fig5d-batch: one fresh session per 50-query batch."""

    def request(self, index: int) -> list[Any]:
        from repro.session import MatchSession

        with MatchSession(self.graph) as session:
            return session.run_batch(self.batch(index))


def oneshot_answer(spec: Any, graph: Any) -> Any:
    """The one-shot ``repro.api`` answer to ``spec``."""
    from repro import api

    if spec.mode == "topk":
        return api.top_k_matches(spec.pattern, graph, spec.k)
    if spec.mode == "baseline":
        return api.baseline_matches(spec.pattern, graph, spec.k)
    if spec.mode == "multi":
        return api.top_k_matches_multi(spec.pattern, graph, spec.k)
    return api.diversified_matches(
        spec.pattern, graph, spec.k, lam=spec.lam, method=spec.method
    )


class OneshotSurface(Surface):
    """fig5e-oneshot: one ``repro.api`` call per request."""

    def request(self, index: int) -> list[Any]:
        (spec,) = self.batch(index)
        return [oneshot_answer(spec, self.graph)]


class WritesSurface(Surface):
    """fig5e-writes: burst, refresh, batch on one patching session."""

    def __init__(self, plan: dict[str, Any], graph_path: Path) -> None:
        super().__init__(plan, graph_path)
        from repro.graph.delta import op_from_json_dict

        self.ops = [op_from_json_dict(op) for op in plan["ops"]]
        self.burst = len(self.ops) // plan["max_requests"]

    def setup(self) -> list[Any]:
        from repro.session import ExecutionConfig, MatchSession

        self.load(freeze=False)
        self.session = MatchSession(
            self.graph, config=ExecutionConfig(snapshot_patching=True)
        )
        return self.session.run_batch([self.specs[i] for i in self.plan["warm"]])

    def request(self, index: int) -> list[Any]:
        self.graph.apply_delta(self.ops[index * self.burst:(index + 1) * self.burst])
        self.session.refresh()
        return self.session.run_batch(self.batch(index))


class PoolSurface(Surface):
    """fig5g-pool: one long-lived ``workers=2`` session per round."""

    def setup(self) -> list[Any]:
        from repro.session import ExecutionConfig, MatchSession

        self.load()
        self.session = MatchSession(
            self.graph, config=ExecutionConfig(workers=self.plan["workers"])
        )
        return self.session.run_batch([self.specs[i] for i in self.plan["warm"]])

    def request(self, index: int) -> list[Any]:
        return self.session.run_batch(self.batch(index))


SURFACES = {
    "batch": BatchSurface,
    "oneshot": OneshotSurface,
    "writes": WritesSurface,
    "pool": PoolSurface,
}


class EngineTally:
    """``EngineStats`` summed over the engine's answers, plus the match
    ratio's denominator: ``|Mu|`` of each answer's pattern and output
    node, from the ``Match`` pass on the graph the answer was served on."""

    def __init__(self, surface: Surface) -> None:
        self.surface = surface
        self.runs = self.inspected = self.deltas_applied = self.batches = 0
        self.total_matches = 0
        self._mu: dict[tuple[int, bool, int], int] = {}

    def graph_changed(self) -> None:
        self._mu.clear()

    def _matches(self, spec: dict[str, Any], node: int) -> int:
        import copy

        from repro.topk.match_all import match_baseline

        key = (spec["pattern"], spec["multi"], node)
        if key not in self._mu:
            pattern = copy.deepcopy(self.surface.patterns[spec["pattern"]])
            pattern.set_output(node)
            stats = match_baseline(pattern, self.surface.graph, 1).stats
            self._mu[key] = stats.total_matches or 0
        return self._mu[key]

    def add(self, spec: dict[str, Any], answer: Any, query_pattern: Any) -> None:
        parts = answer.items() if isinstance(answer, dict) else [
            (query_pattern.output_node, answer)
        ]
        for node, result in parts:
            if result.algorithm not in ENGINE_ALGORITHMS:
                continue
            stats = result.stats
            self.runs += 1
            self.inspected += stats.inspected_matches
            self.deltas_applied += stats.deltas_applied
            self.batches += stats.batches
            self.total_matches += self._matches(spec, node)

    def metrics(self) -> dict[str, float]:
        return {
            "topk.runs": self.runs,
            "topk.inspected_matches": self.inspected,
            "topk.deltas_applied": self.deltas_applied,
            "topk.batches": self.batches,
            "topk.match_ratio": (
                self.inspected / self.total_matches if self.total_matches else 0.0
            ),
        }


@dataclass
class Phase:
    """The requests of one measured or traced phase, in issue order."""

    latencies: list[float] = field(default_factory=list)
    fingerprints: list[list[str] | None] = field(default_factory=list)
    answered: int = 0
    busy_s: float = 0.0


class Runner:
    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.plan = json.loads((run_dir / "plan.json").read_text())
        self.surface = SURFACES[self.plan["surface"]](self.plan, Path(self.plan["graph_path"]))
        self.attempted = 0
        self.failed = 0

    def progress(self) -> None:
        """Record the operations attempted so far; ``run.py`` also reads
        the file's age to tell a stalled run from a slow one."""
        (self.run_dir / "progress").write_text(str(self.attempted))

    def serve(self, phase: Phase, count: int, seconds: float = 0.0, whole: int = 1,
              tracer: Any = None, tally: EngineTally | None = None) -> None:
        """Issue the phase's next requests in a closed loop, until it
        holds at least ``count`` requests and ``seconds`` of request time,
        at a multiple of ``whole`` requests."""
        plan = self.plan
        for index in range(len(phase.fingerprints), plan["max_requests"]):
            if index >= count and phase.busy_s >= seconds and index % whole == 0:
                break
            size = len(plan["requests"][index])
            with tracer.explicit_gc() if tracer else nullcontext():
                gc.collect()
            started = perf_counter()
            try:
                with tracer.root("bench.request", index) if tracer else nullcontext():
                    answers = self.surface.request(index)
            except Exception:
                traceback.print_exc()
                answers = None
            elapsed = perf_counter() - started
            phase.busy_s += elapsed
            self.attempted += size
            if answers is None:
                self.failed += size
                phase.fingerprints.append(None)
            else:
                phase.latencies.append(elapsed)
                phase.answered += size
                phase.fingerprints.append([fingerprint(a) for a in answers])
                if tally is not None:
                    with tracer.paused():
                        if plan["surface"] == "writes":
                            tally.graph_changed()
                        for i, answer in zip(plan["requests"][index], answers):
                            tally.add(plan["specs"][i], answer,
                                      self.surface.specs[i].pattern)
            del answers
            self.progress()

    def setup(self) -> tuple[float, list[str]]:
        gc.collect()
        started = perf_counter()
        warm = self.surface.setup()
        elapsed = perf_counter() - started
        self.progress()
        return elapsed, [fingerprint(a) for a in warm]

    def teardown(self) -> None:
        self.surface.close()
        self.failed += reap_children()

    def run_untraced(self, seconds: float) -> dict[str, Any]:
        """The measured run: ``rounds`` rounds of setups and requests.

        Round ``r`` of ``R`` serves until the run holds ``(r+1)/R`` of
        the minimum request count and of ``seconds`` of request time; the
        last round ends only at a multiple of the plan's ``stop_every``.
        """
        plan = self.plan
        rounds = plan["rounds"]
        phase = Phase()
        samples: list[float] = []
        workers_mb: list[float] = []
        for round_ in range(rounds):
            for _ in range(plan["setups_per_round"]):
                self.teardown()
                elapsed, warm = self.setup()
                samples.append(elapsed)
            done = round_ + 1
            self.serve(phase, -(-plan["min_requests"] * done // rounds),
                       seconds * done / rounds,
                       plan["stop_every"] if done == rounds else 1)
            # Workers live for one round; keep the round whose workers peaked.
            workers_mb = max(workers_mb, [vm_hwm_mb(child.pid) for child in
                                          multiprocessing.active_children()], key=sum)
        self.teardown()
        return {
            "setup_samples": samples,
            "warm": warm,
            "memory": {"runner_mb": vm_hwm_mb("self"), "workers_mb": workers_mb},
            "min_requests": plan["min_requests"],
            **asdict(phase),
        }

    def run_traced(self) -> dict[str, Any]:
        from tracing import SpanTracer

        count = self.plan["traced_requests"]
        # Phase A, untraced: the same requests, for the overhead figure.
        _, warm_a = self.setup()
        plain = Phase()
        self.serve(plain, count, whole=self.plan["stop_every"])
        self.teardown()

        tracer = SpanTracer()
        tally = EngineTally(self.surface)
        tracer.install()
        try:
            tracer.active = True
            with tracer.root("bench.setup"):
                warm = self.surface.setup()
            with tracer.paused():
                warm_b = [fingerprint(a) for a in warm]
                del warm
            traced = Phase()
            self.serve(traced, count, whole=self.plan["stop_every"],
                       tracer=tracer, tally=tally)
            with tracer.root("bench.teardown"):
                self.surface.close()
        finally:
            tracer.active = False
            tracer.uninstall()
        self.failed += reap_children()
        trace_path = self.run_dir / "spans.jsonl"
        tracer.write(trace_path)
        layers = tracer.layer_metrics()
        layers.update(tally.metrics())
        qps = {
            name: phase.answered / phase.busy_s if phase.busy_s else 0.0
            for name, phase in (("untraced", plain), ("traced", traced))
        }
        layers["trace.throughput_qps_untraced"] = qps["untraced"]
        layers["trace.throughput_qps_traced"] = qps["traced"]
        layers["trace.overhead"] = (
            qps["untraced"] / qps["traced"] - 1.0 if qps["traced"] else 0.0
        )
        return {
            "layers": layers,
            "warm": warm_a,
            "warm_traced": warm_b,
            "fingerprints": plain.fingerprints,
            "fingerprints_traced": traced.fingerprints,
            "spans_file": str(trace_path),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(args.run_dir)
    if args.trace:
        result = runner.run_traced()
    else:
        result = runner.run_untraced(args.seconds)
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    (args.run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
