"""Relevant sets ``R(u, v)`` (paper Section 3.1, Lemma 1).

``R(u, v)`` contains every match ``v'`` of every descendant query node
``u'`` of ``u`` such that ``v`` reaches ``v'`` through a *path of matches*:
consecutive pattern/graph edges whose intermediate pairs all belong to
``M(Q, G)``.  Equivalently (and this is how we compute it):

    ``R(u, v) = { v' : (u', v') reachable from (u, v) via ≥ 1 edge
                  in the match-pair graph }``

A pair lying on a pair-cycle therefore reaches itself, which is exactly the
behaviour Example 8 shows (``DB3 ∈ R(DB, DB3)``).  Lemma 1's uniqueness is
immediate: reachability sets are unique.

The evaluation
--------------
Every reader of relevant sets (``Match``, ``TopK``/``TopKDAG``, TopKDH,
TopKDiv and :class:`~repro.ranking.context.RankingContext`) goes through
one :class:`Evaluation` per pattern and output node ``uo``.  It holds:

* the match-pair graph over the simulation relation of the query nodes
  ``uo`` reaches, ``uo`` included (relevant sets never leave that
  region);
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
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.graph import csr
from repro.graph.algorithms import strongly_connected_components
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern


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
    """The :class:`Evaluation` of ``pattern`` at output node ``uo``.

    ``use_csr`` reads adjacency from the graph's CSR snapshot (when numpy
    is available); otherwise the pair graph walks ``graph.successors``.
    """
    if use_csr and csr.available():
        successors = graph.snapshot().out_adjacency_lists().__getitem__
    else:
        successors = graph.successors
    return Evaluation(pattern, graph, sim, uo, successors)


def relevant_sets(
    pattern: Pattern,
    graph: Graph,
    sim: list[set[int]],
    query_node: int,
    evaluation: Evaluation | None = None,
) -> dict[int, csr.FrozenBitset]:
    """``R(query_node, v)`` for every match ``v`` of ``query_node``.

    The sets are views over the packed masks of ``evaluation``, the
    evaluation of ``query_node`` over ``sim``; one is built when none is
    given.
    """
    if evaluation is None:
        evaluation = build_evaluation(pattern, graph, sim, query_node, use_csr=True)
    relevant, interner = evaluation.relevant, evaluation.interner
    return {
        v: csr.FrozenBitset(relevant(comp), interner)
        for v, comp in zip(evaluation.matches, evaluation.out_comp)
    }


def relevance_values(
    pattern: Pattern,
    graph: Graph,
    sim: list[set[int]],
    query_node: int,
) -> dict[int, int]:
    """``δr(query_node, v) = |R(query_node, v)|`` for every match ``v``."""
    return {v: len(rset) for v, rset in relevant_sets(pattern, graph, sim, query_node).items()}


def induced_result_graph(
    pattern: Pattern,
    graph: Graph,
    sim: list[set[int]],
    query_node: int,
    match: int,
) -> tuple[Graph, dict[int, int]]:
    """The subgraph of ``G`` induced by ``{match} ∪ R(query_node, match)``.

    This is what Figure 4 of the paper draws for each returned match.
    Returns the induced graph and the old-id -> new-id mapping.
    """
    rset = relevant_sets(pattern, graph, sim, query_node).get(match, frozenset())
    return graph.subgraph({match} | set(rset))
