"""Tests for attribute-delta repair of a session's cached relation."""

import pytest

from repro.errors import GraphError
from repro.graph.delta import DeltaOp
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern, pattern_from_edges
from repro.patterns.predicates import AttrCompare
from repro.session import MatchSession
from repro.simulation.match import maximal_simulation


def predicate_setup():
    """A PM -> DB pattern where the DB must have rate > 3."""
    g = Graph()
    pm = g.add_node("PM")
    db_good = g.add_node("DB", rate=5)
    db_bad = g.add_node("DB", rate=1)
    g.add_edge(pm, db_good)
    g.add_edge(pm, db_bad)

    q = Pattern()
    q_pm = q.add_node("PM", output=True)
    q_db = q.add_node("DB", predicate=AttrCompare("rate", ">", 3))
    q.add_edge(q_pm, q_db)
    return g, q, (pm, db_good, db_bad)


def repaired(session, pattern):
    """The cached relation, checked against a fresh fixpoint."""
    result, hit = session.cache.simulation(pattern)
    assert hit
    assert result.sim == maximal_simulation(pattern, session.graph).sim
    return result


class TestAttrDeltas:
    def test_losing_the_predicate_cascades(self):
        g, q, (pm, db_good, db_bad) = predicate_setup()
        with MatchSession(g, on_mutation="refresh") as session:
            assert session.cache.simulation(q)[0].output_matches() == {pm}
            g.set_attrs(db_good, rate=2)  # now no DB satisfies rate > 3
            result = repaired(session, q)
            assert not result.total and result.output_matches() == set()
            assert session.baseline(q, 3).matches == []

    def test_gaining_the_predicate_resurrects(self):
        g, q, (pm, db_good, db_bad) = predicate_setup()
        g.set_attrs(db_good, rate=2)
        with MatchSession(g, on_mutation="refresh") as session:
            assert not session.cache.simulation(q)[0].total
            g.set_attrs(db_bad, rate=9)
            assert repaired(session, q).output_matches() == {pm}
            assert session.baseline(q, 3).matches == [pm]

    def test_unpredicated_patterns_skip_attr_churn(self):
        g, q, (pm, db_good, db_bad) = predicate_setup()
        plain = pattern_from_edges(["PM", "DB"], [(0, 1)], output=0)
        with MatchSession(g, on_mutation="refresh") as session:
            session.cache.simulation(plain)
            g.set_attrs(db_bad, rate=7)
            stats = session.cache.repair_stats(plain)
            assert stats.ops_applied == 0
            assert stats.ops_skipped == 1

    def test_attr_op_in_delta_batch(self):
        g, q, (pm, db_good, db_bad) = predicate_setup()
        with MatchSession(g, on_mutation="refresh") as session:
            session.cache.simulation(q)
            g.apply_delta(
                [DeltaOp.set_attrs(db_good, rate=0), DeltaOp.set_attrs(db_bad, rate=8)]
            )
            assert repaired(session, q).output_matches() == {pm}
            assert session.cache.repair_stats(q).ops_applied == 2

    def test_set_attrs_on_frozen_graph_rejected(self):
        g, _, (pm, db_good, _) = predicate_setup()
        g.freeze()
        with pytest.raises(GraphError):
            g.set_attrs(db_good, rate=0)

    def test_set_attrs_on_removed_node_rejected(self):
        g, _, (pm, db_good, _) = predicate_setup()
        g.remove_node(db_good)
        with pytest.raises(GraphError):
            g.set_attrs(db_good, rate=0)
