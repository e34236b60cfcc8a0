"""Answer checks: the untimed pass that feeds ``error_rate``.

Every timed answer reaches this module as a fingerprint (see
``serve.fingerprint``).  A query counts as failed unless its fingerprint
equals the reference answer's and the reference passes the oracle:

* top-k, baseline and multi answers: the true relevance sum of the
  returned set equals the ``Match`` baseline's (Prop. 3, checked the way
  ``tests/topk/test_oracle.py`` does);
* diversified answers: ``min(k, |Mu|)`` members, all drawn from ``Mu``.

References are one-shot ``repro.api`` answers on the pinned graph, so a
batch or pool answer must also equal the one-shot answer.  Of the pool's
diversified answers, a seeded sample is checked; a sampled write-stream
cycle is checked against a fresh default session on a twin graph that
replays the same ops.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from typing import Any

from serve import fingerprint, oneshot_answer

#: ``(label, warm-batch fingerprints, per-request fingerprints)``; a
#: request that raised has ``None`` in place of its fingerprints.
Run = tuple[str, list[str], list[list[str] | None]]


class Oracle:
    """Definition-level checks of answers on one graph state."""

    def __init__(self, graph: Any, patterns: list[Any]) -> None:
        self.graph = graph
        self.patterns = patterns
        self._contexts: dict[tuple[int, int], Any] = {}

    def _context(self, pattern_index: int, node: int) -> tuple[Any, Any]:
        from repro.ranking.context import RankingContext

        key = (pattern_index, node)
        if key not in self._contexts:
            pattern = copy.deepcopy(self.patterns[pattern_index])
            pattern.set_output(node)
            self._contexts[key] = (pattern, RankingContext(pattern, self.graph))
        return self._contexts[key]

    def _optimal(self, pattern_index: int, node: int, k: int, result: Any) -> str | None:
        from repro.topk.match_all import match_baseline

        pattern, ctx = self._context(pattern_index, node)
        best = match_baseline(pattern, self.graph, k, context=ctx)
        if any(v not in ctx.relevant for v in result.matches):
            return f"output {node}: returned a node outside Mu"
        got = sum(len(ctx.relevant[v]) for v in result.matches)
        if got != best.total_relevance() or len(result.matches) != len(best.matches):
            return (f"output {node}: relevance {got} over {len(result.matches)} "
                    f"matches, Match has {best.total_relevance()} over "
                    f"{len(best.matches)}")
        return None

    def verdict(self, spec: dict[str, Any], query: Any, answer: Any) -> str | None:
        """``None`` when ``answer`` meets the definitions, else why not."""
        index, k = spec["pattern"], spec["k"]
        if spec["mode"] == "multi":
            nodes = tuple(query.pattern.output_nodes)
            if not isinstance(answer, dict) or tuple(sorted(answer)) != tuple(sorted(nodes)):
                return "multi answer does not cover the output nodes"
            for node in nodes:
                reason = self._optimal(index, node, k, answer[node])
                if reason:
                    return reason
            return None
        node = query.pattern.output_node
        if spec["mode"] == "diversified":
            _, ctx = self._context(index, node)
            members = set(answer.matches)
            if len(answer.matches) != min(k, len(ctx.matches)):
                return f"diversified answer has {len(answer.matches)} members"
            if not members <= set(ctx.matches) or len(members) != len(answer.matches):
                return "diversified answer holds a node outside Mu or a duplicate"
            return None
        return self._optimal(index, node, k, answer)


@dataclass
class CheckReport:
    checked: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)


#: Diversified pool answers checked per run, a seeded sample: each pool
#: query has its own lambda, so its reference cannot be reused across
#: runs, and a one-shot diversified answer on the pool's graph costs
#: ~0.3 s (about 70 of them per run).
DIVERSIFIED_SAMPLE = 12


def sample_pool(plan: dict[str, Any], indices: set[int], report: CheckReport) -> set[int]:
    """The pool queries to check: all except diversified ones, and a
    seeded sample of ``DIVERSIFIED_SAMPLE`` of those."""
    diversified = sorted(i for i in indices if plan["specs"][i]["mode"] == "diversified")
    rng = random.Random(f"check:{plan['seed']}:diversified")
    sample = rng.sample(diversified, min(DIVERSIFIED_SAMPLE, len(diversified)))
    report.notes.append(
        f"pool: every top-k, multi and baseline answer checked; diversified answers "
        f"to queries {sorted(sample)} checked, a seeded sample of {len(diversified)}"
    )
    return indices.difference(diversified).union(sample)


def compare(report: CheckReport, requests: list[list[int]],
            fingerprints: list[list[str] | None], expected: dict[int, str | None],
            label: str) -> None:
    """Count every query whose fingerprint misses its reference; queries
    without an entry in ``expected`` are outside the checked sample."""
    for number, (request, got) in enumerate(zip(requests, fingerprints)):
        if got is None:
            continue  # raised: already counted by the serving process
        for spec_index, fp in zip(request, got):
            if spec_index not in expected:
                continue
            report.checked += 1
            want = expected[spec_index]
            if want is None or fp != want:
                report.fail(1, f"{label} request {number}: query {spec_index} "
                               "differs from its checked reference")


def reference_key(spec: dict[str, Any]) -> str:
    """A query's JSON without the fields its one-shot answer ignores:
    lambda and the method matter to diversified queries only."""
    if spec["mode"] != "diversified":
        spec = {**spec, "lam": None, "method": None}
    return json.dumps(spec, sort_keys=True)


def one_shot_references(plan: dict[str, Any], indices: set[int], load_graph: Any,
                        patterns: list[Any], specs: list[Any], report: CheckReport,
                        references: dict[str, dict[str, Any]]) -> dict[int, str | None]:
    """Reference fingerprints of queries on the pinned graph.

    ``references`` maps a query's ``reference_key`` to its one-shot answer's
    fingerprint and oracle verdict.  The caller keeps it per input set
    and program source; missing entries are computed here and added.
    Returns, per query index, the fingerprint an answer must have, or
    ``None`` when the reference itself failed the oracle.
    """
    content = {i: reference_key(plan["specs"][i]) for i in indices}
    missing = {content[i]: i for i in sorted(indices) if content[i] not in references}
    if missing:
        graph = load_graph().freeze()
        oracle = Oracle(graph, patterns)
        for key, index in missing.items():
            answer = oneshot_answer(specs[index], graph)
            references[key] = {
                "fingerprint": fingerprint(answer),
                "reason": oracle.verdict(plan["specs"][index], specs[index], answer),
            }
    expected: dict[int, str | None] = {}
    for index in sorted(indices):
        reference = references[content[index]]
        if reference["reason"]:
            report.fail(0, f"reference for query {index}: {reference['reason']}")
        expected[index] = None if reference["reason"] else reference["fingerprint"]
    report.notes.append(
        f"answers checked against one-shot references for {len(set(content.values()))} "
        f"distinct queries ({len(missing)} computed in this run)"
    )
    return expected


def check_cycle(plan: dict[str, Any], load_graph: Any, patterns: list[Any],
                specs: list[Any], run: Run, report: CheckReport) -> None:
    """Check one seeded random write-stream cycle of ``run``.

    A twin graph replays the ops up to that cycle; a fresh default
    session on the twin answers the mix, its answers must pass the
    oracle, and the cycle's answers must equal them.
    """
    from repro.graph.delta import op_from_json_dict
    from repro.session import MatchSession

    label, _, fingerprints = run
    if not fingerprints:
        return
    cycle = random.Random(f"check:{plan['seed']}:{label}").randrange(len(fingerprints))
    got = fingerprints[cycle]
    report.notes.append(f"{label}: cycle {cycle} of {len(fingerprints)} checked on a twin graph")
    if got is None:
        return  # raised: already counted by the serving process
    ops = [op_from_json_dict(op) for op in plan["ops"]]
    burst = len(ops) // plan["max_requests"]
    twin = load_graph()
    twin.apply_delta(ops[:(cycle + 1) * burst])
    with MatchSession(twin) as session:
        answers = session.run_batch([specs[i] for i in plan["warm"]])
    oracle = Oracle(twin, patterns)
    for spec_index, answer, fp in zip(plan["warm"], answers, got):
        report.checked += 1
        reason = oracle.verdict(plan["specs"][spec_index], specs[spec_index], answer)
        if reason or fp != fingerprint(answer):
            report.fail(1, f"{label} cycle {cycle}: query {spec_index}: "
                           f"{reason or 'differs from the twin session'}")
