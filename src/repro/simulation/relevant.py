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
one :class:`Evaluation` per pattern and output node ``uo``.  It is built
by array passes over the match pairs of the query nodes ``uo`` reaches,
``uo`` included (relevant sets never leave that region):

* the pair graph: per query node, one gather of the out-slices of its
  sorted matches, mapped to pair ids through one table per child query
  node.  The gather reads the cached snapshot's flat out-CSR
  (:meth:`~repro.graph.csr.CSRSnapshot.out_csr`), or ``graph.successors``
  when a write has dropped the snapshot (see :func:`build_evaluation`);
* its condensation.  Pair-cycles only run inside nontrivial pattern
  SCCs.  There, pairs without an in-edge or an out-edge are trimmed
  until none is left, and Tarjan runs on the core that remains; every
  other pair is its own component, so DAG patterns never run it.  One
  sort drops the condensed self-edges and duplicate edges;
* per component, its data nodes ``data(c)`` over a
  :class:`~repro.graph.csr.NodeInterner` of the reachable matches;
* an upper bound per component, computed level by level from the sinks
  of the condensation, one pass over the edges per level::

      ub(c) = [c cyclic]·|data(c)| + Σ_{child d} (ub(d) + |data(d)|)

  capped at the interned universe ``|⋃ sim(u')|``.  It is sound because
  ``R(c)`` is the union of each child's ``R(d) ∪ data(d)``, plus
  ``data(c)`` when ``c`` is cyclic.

The condensation's children are one flat CSR of ``array('q')``.
Relevant sets are packed into ints and computed on demand, by a
memoised children-first walk.  A session shares one evaluation, memo
included, across every query of the same pattern and output node.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Sequence

import numpy as np

from repro.graph import csr
from repro.graph.algorithms import strongly_connected_components
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern


class Evaluation:
    """The match-pair condensation of one pattern and output node.

    ``matches`` lists ``Mu`` in ascending order; a match's *pid* is its
    index there.  ``out_comp[pid]`` is its component and ``out_bound[pid]``
    the bound ``ub`` of that component.  ``snapshot`` is the graph's
    current CSR snapshot, or ``None`` to read adjacency from
    ``graph.successors``.
    """

    __slots__ = (
        "matches",
        "out_comp",
        "out_bound",
        "interner",
        "num_pairs",
        "_child_offsets",
        "_children",
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
        snapshot: csr.CSRSnapshot | None,
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

        # Pair ids: contiguous per query node, query nodes children first.
        rows: dict[int, np.ndarray] = {}
        first: dict[int, int] = {}
        spans: list[tuple[int, int, int]] = []
        num_pairs = 0
        for index, members in blocks:
            lo = num_pairs
            for u in members:
                row = np.fromiter(sim[u], np.int64, len(sim[u]))
                row.sort()
                rows[u], first[u] = row, num_pairs
                num_pairs += row.size
            spans.append((index, lo, num_pairs))
        self.num_pairs = num_pairs
        src, children = _pair_edges(pattern, graph, snapshot, rows, first)
        offsets = np.zeros(num_pairs + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=num_pairs), out=offsets[1:])

        # Pair-cycles run only inside nontrivial pattern blocks.
        cycles: list[list[int]] = []
        nontrivial = set(analysis.nontrivial_components())
        for index, lo, hi in spans:
            if index in nontrivial:
                block = slice(offsets[lo], offsets[hi])
                inside = (children[block] >= lo) & (children[block] < hi)
                cycles += _pair_cycles(src[block][inside], children[block][inside], lo, hi)

        # Data per component: one bit, or the mask of a cyclic component.
        bit_of = np.full(graph.num_nodes, -1, np.int64)
        bit_of[np.asarray(self.interner.node_of, np.int64)] = np.arange(len(self.interner))
        bit = bit_of[np.concatenate(list(rows.values()))]
        merged: dict[int, int] = {}
        comp_of = np.arange(num_pairs)
        if cycles:
            comp_of, leads, offsets, children = _merge_cycles(cycles, src, children, num_pairs)
            pair_bit = bit.tolist()
            for cycle in cycles:
                bits = {pair_bit[p] for p in cycle}
                merged[int(comp_of[cycle[0]])] = sum(map((1).__lshift__, bits))
            bit = bit[leads]
            bit[list(merged)] = -1
        own = np.zeros(bit.size, np.int64)
        own[list(merged)] = [mask.bit_count() for mask in merged.values()]
        ub = _bounds(offsets, children, (bit >= 0) + own, own, len(self.interner))

        start = first[uo]
        self.matches = rows[uo].tolist()
        out = comp_of[start:start + len(self.matches)]
        self.out_comp = out.tolist()
        self.out_bound = ub[out].tolist()
        self._child_offsets = array("q", offsets.tobytes())
        self._children = array("q", children.astype(np.int64).tobytes())
        self._bit = array("q", bit.tobytes())
        self._merged = merged
        self._contribution: list[int | None] = [None] * bit.size
        self._relevant: dict[int, int] = {}

    def relevant(self, comp: int) -> int:
        """``R(comp)`` as a mask over :attr:`interner`."""
        mask = self._relevant.get(comp)
        if mask is not None:
            return mask
        offsets, children = self._child_offsets, self._children
        memo, merged, bit = self._contribution, self._merged, self._bit
        # Depth first, filling ``R(c) ∪ data(c)`` children first for
        # every component below ``comp``.  The condensation is acyclic,
        # so a component on the stack is never met again below itself.
        kids = children[offsets[comp]:offsets[comp + 1]]
        stack = [(comp, kids, iter(kids))]
        while stack:
            c, kids, pending = stack[-1]
            for d in pending:
                if memo[d] is None:
                    lo, hi = offsets[d], offsets[d + 1]
                    if lo < hi:
                        below = children[lo:hi]
                        stack.append((d, below, iter(below)))
                        break
                    # A sink contributes its own data alone.
                    b = bit[d]
                    memo[d] = 1 << b if b >= 0 else merged.get(d, 0)
            else:
                stack.pop()
                mask = merged.get(c, 0)
                for d in kids:
                    mask |= memo[d]  # type: ignore[operator]
                b = bit[c]
                memo[c] = mask | (1 << b) if b >= 0 else mask
        self._relevant[comp] = mask
        return mask


def _pair_edges(
    pattern: Pattern,
    graph: Graph,
    snapshot: csr.CSRSnapshot | None,
    rows: dict[int, np.ndarray],
    first: dict[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """The match-pair graph's edges ``(src, dst)`` as pid arrays, by ``src``.

    Per query node, one index expansion gathers the out-slices of its
    row, and each child query node maps the targets through its pid
    table.  Rows come in pid order, so the edges come sorted by source.
    """
    if snapshot is not None:
        out_offsets, out_targets = snapshot.out_csr()
    tables: dict[int, np.ndarray] = {}
    for child in {child for u in rows for child in pattern.successors(u)}:
        table = tables[child] = np.full(graph.num_nodes, -1, np.int64)
        table[rows[child]] = np.arange(first[child], first[child] + rows[child].size)
    srcs, dsts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for u, row in rows.items():
        kids = pattern.successors(u)
        if not kids or not row.size:
            continue
        if snapshot is not None:
            starts = out_offsets[row]
            lengths = out_offsets[row + 1] - starts
            ends = np.cumsum(lengths)
            targets = out_targets[np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)]
        else:
            runs = [graph.successors(v) for v in row.tolist()]
            lengths = np.fromiter(map(len, runs), np.int64, len(runs))
            targets = np.fromiter(chain.from_iterable(runs), np.int64, int(lengths.sum()))
        # One column per child query node: row-major order keeps ``src`` sorted.
        hits = np.stack([tables[child][targets] for child in kids], axis=1).ravel()
        pids = np.repeat(np.arange(first[u], first[u] + row.size), lengths * len(kids))
        keep = hits >= 0
        srcs.append(pids[keep])
        dsts.append(hits[keep])
    return np.concatenate(srcs), np.concatenate(dsts)


def _pair_cycles(src: np.ndarray, dst: np.ndarray, lo: int, hi: int) -> list[list[int]]:
    """The cyclic components of the pair graph on the pids ``[lo, hi)``.

    ``src``/``dst`` are the edges inside that range, sorted by ``src``.
    Pairs without an in-edge or an out-edge lie on no cycle: they are
    trimmed until every remaining pair has both, and Tarjan runs on that
    core alone.  A component is cyclic when it has two pairs or more, or
    one pair with a self-edge.
    """
    size = hi - lo
    src, dst = src - lo, dst - lo
    while src.size:
        live = np.zeros(size, bool)
        live[dst] = True
        has_out = np.zeros(size, bool)
        has_out[src] = True
        live &= has_out
        keep = live[src] & live[dst]
        if keep.all():
            break
        src, dst = src[keep], dst[keep]
    if not src.size:
        return []
    core = np.flatnonzero(live)
    local = np.full(size, -1, np.int64)
    local[core] = np.arange(core.size)
    src, dst = local[src], local[dst]
    offsets = np.zeros(core.size + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=core.size), out=offsets[1:])
    bounds, targets = offsets.tolist(), dst.tolist()
    runs = [targets[a:b] for a, b in zip(bounds, bounds[1:])]
    loops = set(src[src == dst].tolist())
    pids = (core + lo).tolist()
    return [
        [pids[i] for i in scc]
        for scc in strongly_connected_components(core.size, runs.__getitem__)
        if len(scc) > 1 or scc[0] in loops
    ]


def _merge_cycles(
    cycles: list[list[int]], src: np.ndarray, dst: np.ndarray, num_pairs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse each cycle into one component, led by its first pair.

    Returns ``comp_of`` per pair, the mask of the pairs that lead a
    component (components are numbered in their order), and the
    condensation's children as a CSR ``(offsets, children)``.  One sort
    drops the condensed self-edges and duplicate edges.
    """
    rep = np.arange(num_pairs)
    rep[np.fromiter(chain.from_iterable(cycles), np.int64)] = np.repeat(
        [cycle[0] for cycle in cycles], [len(cycle) for cycle in cycles]
    )
    leads = rep == np.arange(num_pairs)
    comp_of = (np.cumsum(leads) - 1)[rep]
    num_comps = int(leads.sum())
    src, dst = comp_of[src], comp_of[dst]
    keys = np.sort((src * num_comps + dst)[src != dst])
    parents, children = np.divmod(keys[np.diff(keys, prepend=-1) != 0], num_comps)
    offsets = np.zeros(num_comps + 1, np.int64)
    np.cumsum(np.bincount(parents, minlength=num_comps), out=offsets[1:])
    return comp_of, leads, offsets, children


def _bounds(
    offsets: np.ndarray, children: np.ndarray, size: np.ndarray, own: np.ndarray, cap: int
) -> np.ndarray:
    """``ub`` per component, level by level from the condensation's sinks.

    ``own`` is ``|data(c)|`` for a cyclic component and 0 otherwise.
    Sinks start final; each round recomputes every component from its
    children, so round ``t`` settles the components ``t`` steps above
    the sinks, and a round that changes nothing ends the pass.
    """
    gain = size[children]
    ub = np.minimum(own, cap)
    total = np.zeros(children.size + 1, np.int64)
    while True:
        np.cumsum(ub[children] + gain, out=total[1:])
        settled = np.minimum(own + (total[offsets[1:]] - total[offsets[:-1]]), cap)
        if np.array_equal(settled, ub):
            return ub
        ub = settled


def build_evaluation(
    pattern: Pattern, graph: Graph, sim: Sequence[set[int]], uo: int
) -> Evaluation:
    """The :class:`Evaluation` of ``pattern`` at output node ``uo``.

    Adjacency comes from the graph's cached snapshot, flat or patched.
    When a write has dropped it, the pair graph gathers from
    ``graph.successors`` instead: a caller whose relation was repaired
    in place (:class:`~repro.incremental.view.MatchView`) would
    otherwise compile or patch a whole snapshot per ranking rebuild,
    while its gather touches only the matches' out-lists.
    """
    snapshot = graph.snapshot() if csr.has_cached_snapshot(graph) else None
    return Evaluation(pattern, graph, sim, uo, snapshot)


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
        evaluation = build_evaluation(pattern, graph, sim, query_node)
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
