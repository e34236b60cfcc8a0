"""Lazy exact top-k over the match-pair condensation (paper Sections 4.1–4.2).

One engine implements ``TopKDAG`` and ``TopK`` and, with a diversified
selection policy, ``TopKDAGDH`` and ``TopKDH``.

The evaluation
--------------
``R(uo, v)`` holds the data node of every pair reachable from
``(uo, v)`` by at least one edge of the match-pair graph (Section 3.1).
An :class:`Evaluation` holds, for one pattern structure and output node:

* the pair graph over the simulation relation of the query nodes ``uo``
  reaches, ``uo`` included;
* its condensation.  Pair-cycles only run inside nontrivial pattern
  SCCs, so Tarjan runs over those pairs alone and every other pair is
  its own component; DAG patterns never run it;
* per component, its data nodes ``data(c)`` over a
  :class:`~repro.graph.csr.NodeInterner` of the reachable matches;
* an upper bound per component, from one children-first pass::

      ub(c) = [c cyclic]·|data(c)| + Σ_{child d} (ub(d) + |data(d)|)

  capped at the interned universe ``|⋃ sim(u')|``.  It is sound because
  ``R(c)`` is the union of each child's ``R(d) ∪ data(d)``, plus
  ``data(c)`` when ``c`` is cyclic.

Relevant sets are packed into ints and computed on demand, by a
memoised children-first walk.  A session shares one evaluation, memo
included, across every query of the same pattern and output node.

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

import functools
import random
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import MatchingError
from repro.graph import csr
from repro.graph.algorithms import strongly_connected_components
from repro.graph.digraph import Graph
from repro.obs import trace
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.relevance import CardinalityRelevance, RelevanceFunction
from repro.session.config import ExecutionConfig
from repro.simulation.candidates import CandidateSets
from repro.simulation.match import maximal_simulation
from repro.topk.policies import SelectionPolicy
from repro.topk.result import EngineStats, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import SessionCache


class Evaluation:
    """The match-pair condensation of one pattern and output node.

    ``matches`` lists ``Mu`` in ascending order; a match's *pid* is its
    index there.  ``out_comp[pid]`` is its component and ``out_bound[pid]``
    the bound ``ub`` of that component.
    """

    __slots__ = (
        "matches",
        "out_comp",
        "out_bound",
        "interner",
        "num_pairs",
        "_children",
        "_cyclic",
        "_bit",
        "_merged",
        "_contribution",
        "_relevant",
    )

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        sim: Sequence[set[int]],
        uo: int,
        successors: Callable[[int], Sequence[int]],
    ) -> None:
        analysis = pattern.analysis
        reach = analysis.reachable_from(uo)
        region = reach | {uo}
        # Pattern components children first (Tarjan order), restricted to
        # the region, which is a union of whole components.
        blocks = [
            (index, members)
            for index, members in enumerate(analysis.cond.components)
            if members[0] in region
        ]
        universe: set[int] = set()
        for u in reach:
            universe |= sim[u]
        self.interner = csr.NodeInterner(universe, graph.num_nodes)

        # Pair ids: contiguous per query node, query nodes children first,
        # so every pair-graph edge leads to a smaller id.
        rows: dict[int, list[int]] = {}
        pid_of: dict[int, list[int]] = {}
        first: dict[int, int] = {}
        pair_v: list[int] = []
        for _, members in blocks:
            for u in members:
                row = sorted(sim[u])
                table = [-1] * graph.num_nodes
                for pid, v in enumerate(row, len(pair_v)):
                    table[v] = pid
                rows[u], pid_of[u], first[u] = row, table, len(pair_v)
                pair_v.extend(row)
        self.num_pairs = len(pair_v)
        kids: list[list[int]] = []
        for _, members in blocks:
            for u in members:
                tables = [pid_of[child] for child in pattern.successors(u)]
                for v in rows[u]:
                    out = successors(v)
                    kid: list[int] = []
                    for table in tables:
                        kid += [q for w in out if (q := table[w]) >= 0]
                    kids.append(kid)

        bit_of = self.interner.bit_of
        self._bit = [bit_of[v] for v in pair_v]
        self._cyclic = [False] * self.num_pairs
        self._merged: dict[int, int] = {}
        self._children = kids
        comp_of: list[int] = list(range(self.num_pairs))
        nontrivial = set(analysis.nontrivial_components())
        if nontrivial.intersection(index for index, _ in blocks):
            comp_of = self._condense(blocks, nontrivial, rows, pair_v)

        # One children-first bound pass.
        cap = len(self.interner)
        size = [
            1 if b >= 0 else self._merged[c].bit_count() if c in self._merged else 0
            for c, b in enumerate(self._bit)
        ]
        ub = [0] * len(size)
        for c, kid in enumerate(self._children):
            total = size[c] if self._cyclic[c] else 0
            for d in kid:
                total += ub[d] + size[d]
            ub[c] = total if total < cap else cap

        start = first[uo]
        self.matches = rows[uo]
        self.out_comp = comp_of[start:start + len(self.matches)]
        self.out_bound = [ub[c] for c in self.out_comp]
        self._contribution: list[int | None] = [None] * len(size)
        self._relevant: dict[int, int] = {}

    def _condense(
        self,
        blocks: list[tuple[int, list[int]]],
        nontrivial: set[int],
        rows: dict[int, list[int]],
        pair_v: list[int],
    ) -> list[int]:
        """Collapse pair-cycles into components; returns ``comp_of``.

        Replaces the one-component-per-pair layout.  Component ids stay
        children first: blocks in order, Tarjan order inside a block.
        ``_bit`` is -1 for a merged component, whose data mask lives in
        ``_merged``.
        """
        bit_of = self.interner.bit_of
        kids = self._children
        comp_of: list[int] = []
        bit: list[int] = []
        cyclic: list[bool] = []
        lo = 0
        for index, members in blocks:
            hi = lo + sum(len(rows[u]) for u in members)
            if index not in nontrivial:
                comp_of.extend(range(len(bit), len(bit) + hi - lo))
                bit.extend(bit_of[v] for v in pair_v[lo:hi])
                cyclic.extend([False] * (hi - lo))
                lo = hi
                continue
            local = [[q - lo for q in kids[p] if lo <= q < hi] for p in range(lo, hi)]
            comp_of.extend([0] * (hi - lo))
            for scc in strongly_connected_components(hi - lo, local.__getitem__):
                c = len(bit)
                for i in scc:
                    comp_of[lo + i] = c
                if len(scc) == 1 and scc[0] not in local[scc[0]]:
                    bit.append(bit_of[pair_v[lo + scc[0]]])
                    cyclic.append(False)
                    continue
                mask = 0
                for i in scc:
                    mask |= 1 << bit_of[pair_v[lo + i]]
                self._merged[c] = mask
                bit.append(-1)
                cyclic.append(True)
            lo = hi
        children: list[list[int]] = [[] for _ in bit]
        comp_of_pair = comp_of.__getitem__
        for p, kid in enumerate(kids):
            if kid:
                children[comp_of[p]] += map(comp_of_pair, kid)
        for c, kid in enumerate(children):
            if len(kid) > 1 or kid and kid[0] == c:
                distinct = set(kid)
                distinct.discard(c)
                children[c] = list(distinct)
        self._children, self._bit, self._cyclic = children, bit, cyclic
        return comp_of

    def _own(self, comp: int) -> int:
        """``data(comp)`` as a mask."""
        b = self._bit[comp]
        if b >= 0:
            return 1 << b
        return self._merged.get(comp, 0)

    def relevant(self, comp: int) -> int:
        """``R(comp)`` as a mask over :attr:`interner`."""
        mask = self._relevant.get(comp)
        if mask is not None:
            return mask
        children, memo = self._children, self._contribution
        # Children-first walk filling ``R(d) ∪ data(d)`` for every
        # component below ``comp``.
        stack = [d for d in children[comp] if memo[d] is None]
        while stack:
            c = stack[-1]
            if memo[c] is not None:
                stack.pop()
                continue
            missing = [d for d in children[c] if memo[d] is None]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            memo[c] = self._union(c) | self._own(c)
        mask = self._union(comp)
        self._relevant[comp] = mask
        return mask

    def _union(self, comp: int) -> int:
        memo = self._contribution
        mask = self._own(comp) if self._cyclic[comp] else 0
        for d in self._children[comp]:
            mask |= memo[d]  # type: ignore[operator]
        return mask


def build_evaluation(
    pattern: Pattern, graph: Graph, sim: Sequence[set[int]], uo: int, use_csr: bool
) -> Evaluation:
    """The :class:`Evaluation` of ``pattern`` at output node ``uo``."""
    if use_csr:
        successors = graph.snapshot().out_adjacency_lists().__getitem__
    else:
        successors = graph.successors
    return Evaluation(pattern, graph, sim, uo, successors)


class TopKEngine:
    """Shared engine behind ``TopKDAG``, ``TopK``, ``TopKDH``, ``TopKDAGDH``."""

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        k: int,
        policy: SelectionPolicy,
        candidates: CandidateSets | None = None,
        relevance_fn: RelevanceFunction | None = None,
        algorithm_name: str = "TopK",
        output_node: int | None = None,
        config: ExecutionConfig | None = None,
        cache: "SessionCache | None" = None,
    ) -> None:
        if k < 1:
            raise MatchingError(f"k must be positive; got {k}")
        pattern.validate()
        cfg = (config if config is not None else ExecutionConfig()).resolved()
        self.config = cfg
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
        # Caller-supplied candidates bypass the session store, whose
        # artifacts all derive from the pattern's own can(u).
        if candidates is not None:
            cache = None
        if cfg.use_csr:
            # Either form counts as a hit: a patched overlay serves the
            # same arrays a flat snapshot would.
            if csr.has_cached_snapshot(graph):
                self.stats.snapshot_hits += 1
            else:
                self.stats.snapshot_builds += 1
        with trace("engine.simulation", algorithm=algorithm_name):
            if cache is not None:
                simulation, hit = cache.simulation(
                    pattern, cfg.use_csr,
                    sim_shards=cfg.sim_shards, shard_backend=cfg.shard_backend,
                )
                if hit:
                    self.stats.sim_hits += 1
                else:
                    self.stats.sim_builds += 1
            else:
                simulation = maximal_simulation(
                    pattern, graph, candidates, optimized=cfg.use_csr,
                    sim_shards=cfg.sim_shards, shard_backend=cfg.shard_backend,
                )
                self.stats.sim_builds += 1
        # C_uo counts can(u'), as RankingContext, TopKDiv and
        # exact_objective do.  The engine never reads ``context.relevant``.
        self.context = RankingContext(pattern, graph, simulation, self.uo)
        self.evaluation: Evaluation | None = None
        if simulation.total:
            build = functools.partial(
                build_evaluation, pattern, graph, simulation.sim, self.uo, cfg.use_csr
            )
            with trace("engine.evaluation", algorithm=algorithm_name):
                if cache is not None:
                    evaluation, hit = cache.pair_csr(pattern, cfg.use_csr, self.uo, build)
                else:
                    evaluation, hit = build(), False
            if hit:
                self.stats.paircsr_hits += 1
            else:
                self.stats.paircsr_builds += 1
            self.stats.pairs_created = evaluation.num_pairs
            self.evaluation = evaluation
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
