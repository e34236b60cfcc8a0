"""Engine-level tests: termination, totality, exact scores."""

import pytest

from repro.errors import MatchingError
from repro.graph.digraph import Graph
from repro.patterns.pattern import pattern_from_edges
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag
from repro.topk.engine import TopKEngine
from repro.topk.match_all import match_baseline
from repro.topk.policies import RelevancePolicy


class TestEngineBasics:
    def test_invalid_k_rejected(self, fig1):
        with pytest.raises(MatchingError):
            TopKEngine(fig1.pattern, fig1.graph, 0, policy=RelevancePolicy())

    def test_empty_candidates_short_circuit(self):
        g = Graph()
        g.add_node("A")
        q = pattern_from_edges(["A", "Z"], [(0, 1)], 0)
        result = TopKEngine(q, g, 3, policy=RelevancePolicy()).run()
        assert result.matches == []
        assert result.stats.pairs_created == 0

    def test_totality_enforced(self):
        # A->B exists but pattern also needs isolated label C somewhere.
        g = Graph()
        g.add_nodes(["A", "B", "C"])
        g.add_edge(0, 1)
        q = pattern_from_edges(["A", "B", "C"], [(0, 1), (1, 2)], 0)
        result = top_k(q, g, 2)
        assert result.matches == []


class TestScoresAreExact:
    def test_exhaustive_run_reports_exact_scores(self, fig1):
        result = top_k(fig1.pattern, fig1.graph, 4)
        assert result.scores[fig1.node("PM2")] == 8.0

    def test_early_stop_reports_exact_scores(self, fig1):
        result = top_k(fig1.pattern, fig1.graph, 1)
        assert result.stats.terminated_early
        oracle = match_baseline(fig1.pattern, fig1.graph, 1)
        assert result.scores == oracle.scores

    def test_fewer_matches_than_k(self, fig1):
        result = top_k(fig1.pattern, fig1.graph, 10)
        assert len(result.matches) == 4


class TestDagEngineRejectsCycles:
    def test_cyclic_pattern_rejected(self, fig1):
        with pytest.raises(MatchingError):
            top_k_dag(fig1.pattern, fig1.graph, 2)
