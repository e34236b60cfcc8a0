"""Lazy exact top-k over the match-pair condensation (paper Sections 4.1–4.2).

One engine implements ``TopKDAG`` and ``TopK`` and, with a diversified
selection policy, ``TopKDAGDH`` and ``TopKDH``.

The engine reads the :class:`~repro.simulation.relevant.Evaluation`
of its pattern and output node: the match-pair condensation, a bound
per component and a memo of packed relevant sets.  In a session that
evaluation is shared with every other query of the same pattern and
output node, ``Match`` and ``TopKDiv`` included.

The run
-------
:meth:`TopKEngine.run` visits ``uo``'s matches in descending upper
bound (ties: smaller id), or in seeded random order for the paper's
``nopt`` variants.  Each visit computes the match's exact relevance and
hands it to the selection policy.  Proposition 3 stops the run once the
policy's answer dominates the largest bound among the unvisited
matches.  ``inspected_matches`` counts visits, so the match ratio is
visits ÷ ``|Mu|``.

This departs from Sections 4.1–4.2, which propagate the bounds
``v.l`` / ``v.h`` bottom-up from the rank-0 leaves.  Here a visited
match's relevance is exact, so the reported scores are exact; the stop
rule and the match ratio keep their meaning.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.graph import csr
from repro.graph.digraph import Graph
from repro.obs import trace
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.relevance import CardinalityRelevance, RelevanceFunction
from repro.session.config import ExecutionConfig
from repro.simulation.match import maximal_simulation
from repro.simulation.relevant import Evaluation, build_evaluation
from repro.topk.policies import SelectionPolicy
from repro.topk.result import EngineStats, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import SessionCache


class TopKEngine:
    """Shared engine behind ``TopKDAG``, ``TopK``, ``TopKDH``, ``TopKDAGDH``."""

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        k: int,
        policy: SelectionPolicy,
        relevance_fn: RelevanceFunction | None = None,
        algorithm_name: str = "TopK",
        output_node: int | None = None,
        config: ExecutionConfig | None = None,
        cache: "SessionCache | None" = None,
    ) -> None:
        if k < 1:
            raise MatchingError(f"k must be positive; got {k}")
        pattern.validate()
        self.config = config if config is not None else ExecutionConfig()
        self.pattern = pattern
        self.graph = graph
        self.k = k
        self.policy = policy
        self.algorithm_name = algorithm_name
        # Multi-output patterns (Section 2.2 extension): the engine ranks
        # one output node per run; the facade fans out over all of them.
        self.uo = output_node if output_node is not None else pattern.output_node
        self.relevance_fn = relevance_fn if relevance_fn is not None else CardinalityRelevance()
        self._cardinality = isinstance(self.relevance_fn, CardinalityRelevance)
        self.stats = EngineStats()
        # Either form counts as a hit: a patched overlay serves the same
        # arrays a flat snapshot would.
        if csr.has_cached_snapshot(graph):
            self.stats.snapshot_hits += 1
        else:
            self.stats.snapshot_builds += 1
        with trace("engine.simulation", algorithm=algorithm_name):
            if cache is not None:
                simulation, hit = cache.simulation(pattern)
                if hit:
                    self.stats.sim_hits += 1
                else:
                    self.stats.sim_builds += 1
            else:
                simulation = maximal_simulation(pattern, graph)
                self.stats.sim_builds += 1
        self.evaluation: Evaluation | None = None
        if simulation.total:
            with trace("engine.evaluation", algorithm=algorithm_name):
                if cache is not None:
                    evaluation, hit = cache.pair_csr(pattern, self.uo, simulation)
                else:
                    evaluation = build_evaluation(pattern, graph, simulation.sim, self.uo)
                    hit = False
            if hit:
                self.stats.paircsr_hits += 1
            else:
                self.stats.paircsr_builds += 1
            self.stats.pairs_created = evaluation.num_pairs
            self.evaluation = evaluation
        # C_uo counts can(u'), as TopKDiv and exact_objective do; the
        # context's relevant sets are views of the same evaluation.
        self.context = RankingContext(
            pattern, graph, simulation, self.uo, evaluation=self.evaluation
        )
        if self.evaluation is not None:
            self.relevance_fn.prepare(self.context)
        self._values: dict[int, float] = {}
        policy.bind(self)

    # ------------------------------------------------------------------
    # exact values, read by the policies
    # ------------------------------------------------------------------
    @property
    def num_matches(self) -> int:
        """``|Mu|``."""
        return len(self.evaluation.matches) if self.evaluation is not None else 0

    def relevant_set(self, pid: int) -> csr.FrozenBitset:
        """``R(uo, v)`` of the ``pid``-th match, exact."""
        evaluation = self.evaluation
        assert evaluation is not None
        mask = evaluation.relevant(evaluation.out_comp[pid])
        return csr.FrozenBitset(mask, evaluation.interner)

    def value(self, pid: int) -> float:
        """The exact relevance of the ``pid``-th match."""
        value = self._values.get(pid)
        if value is None:
            evaluation = self.evaluation
            assert evaluation is not None
            if self._cardinality:
                mask = evaluation.relevant(evaluation.out_comp[pid])
                value = float(mask.bit_count())
            else:
                value = self.relevance_fn.value(
                    self.context, evaluation.matches[pid], self.relevant_set(pid)
                )
            self._values[pid] = value
        return value

    def visit_order(self) -> tuple[list[int], list[float]]:
        """The pids in visiting order, and each one's bound."""
        evaluation = self.evaluation
        assert evaluation is not None
        if self._cardinality:
            bounds = [float(b) for b in evaluation.out_bound]
        else:
            fn, ctx = self.relevance_fn, self.context
            bounds = [
                fn.upper(ctx, v, b)
                for v, b in zip(evaluation.matches, evaluation.out_bound)
            ]
        order = list(range(len(bounds)))
        if self.config.optimized:
            order.sort(key=lambda pid: -bounds[pid])
        else:
            random.Random(self.config.seed).shuffle(order)
        return order, bounds

    # ------------------------------------------------------------------
    # the visit loop
    # ------------------------------------------------------------------
    def run(self) -> TopKResult:
        """Execute the algorithm and return its :class:`TopKResult`."""
        started = time.perf_counter()
        with trace("engine.run", algorithm=self.algorithm_name, k=self.k) as span:
            result = self._run()
            self.stats.elapsed_seconds = time.perf_counter() - started
            if span is not None:
                span.set_attr(
                    inspected_matches=self.stats.inspected_matches,
                    terminated_early=self.stats.terminated_early,
                )
        return result

    def _run(self) -> TopKResult:
        stats = self.stats
        if self.evaluation is None:
            # G does not match Q: M(Q, G) is empty (Section 2.1).
            return TopKResult([], {}, self.algorithm_name, stats)
        matches = self.evaluation.matches
        order, bounds = self.visit_order()
        # ``rest[i]``: the largest bound among the matches not yet
        # visited once ``i`` have been.
        rest = [0.0] * len(order)
        best = float("-inf")
        for i in range(len(order) - 1, -1, -1):
            best = max(best, bounds[order[i]])
            rest[i] = best
        policy, k = self.policy, self.k
        visits = 0
        for pid in order:
            if visits and policy.can_stop(k, rest[visits]):
                break
            policy.on_visit(matches[pid], pid, self.value(pid))
            visits += 1
        stats.inspected_matches = visits
        stats.terminated_early = visits < len(matches)

        scored = [(v, self.value(pid)) for v, pid in policy.final_selection(k)]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return TopKResult(
            [v for v, _ in scored],
            dict(scored),
            self.algorithm_name,
            stats,
            policy.objective_value(k),
        )
