"""Tests for the match-pair graph behind an :class:`Evaluation`."""

from repro.graph import csr
from repro.graph.algorithms import descendants
from repro.simulation.match import maximal_simulation
from repro.simulation.relevant import Evaluation


def evaluations(fig1, uo):
    """The evaluation of ``uo`` over the snapshot and over the live adjacency."""
    result = maximal_simulation(fig1.pattern, fig1.graph)
    return result, [
        Evaluation(fig1.pattern, fig1.graph, result.sim, uo, snapshot)
        for snapshot in (fig1.graph.snapshot(), None)
    ]


def relevant(evaluation, v):
    pid = evaluation.matches.index(v)
    mask = evaluation.relevant(evaluation.out_comp[pid])
    return csr.FrozenBitset(mask, evaluation.interner)


class TestPairGraph:
    def test_nodes_are_match_pairs(self, fig1):
        # PM reaches every query node: one pair per match pair.
        _, both = evaluations(fig1, 0)
        assert [evaluation.num_pairs for evaluation in both] == [15, 15]

    def test_edges_follow_both_graphs(self, fig1):
        # R(PM, v) holds matches of the query nodes PM reaches that v
        # reaches in G, and both adjacency sources agree on it.
        result, (flat, walked) = evaluations(fig1, 0)
        reachable = set()
        for u in fig1.pattern.analysis.reachable_from(0):
            reachable |= result.sim[u]
        for v in flat.matches:
            rset = relevant(flat, v)
            assert set(rset) <= reachable & descendants(fig1.graph, v)
            assert set(relevant(walked, v)) == set(rset)

    def test_restriction_to_query_nodes(self, fig1):
        st = fig1.query_nodes["ST"]
        result, both = evaluations(fig1, st)
        for evaluation in both:
            assert evaluation.num_pairs == 4
            assert evaluation.matches == sorted(result.sim[st])
            assert all(not relevant(evaluation, v) for v in evaluation.matches)

    def test_id_lookup(self, fig1):
        result, (evaluation, _) = evaluations(fig1, 0)
        assert evaluation.matches == sorted(result.sim[0])
        pm2 = fig1.node("PM2")
        pid = evaluation.matches.index(pm2)
        assert evaluation.out_bound[pid] >= len(relevant(evaluation, pm2))
        assert fig1.node("ST1") not in evaluation.matches

    def test_reachable_pair_nodes(self, fig1):
        _, (evaluation, _) = evaluations(fig1, 0)
        pm1 = fig1.node("PM1")
        names = set(fig1.names({pm1} | set(relevant(evaluation, pm1))))
        assert names == {"PM1", "DB1", "PRG1", "ST1", "ST2"}
