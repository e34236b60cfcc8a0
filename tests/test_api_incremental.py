"""The public API under writes: a refresh-mode session serves the stream.

Each test caches the pattern in a ``MatchSession(on_mutation="refresh")``
before mutating the graph, then checks the session's answers against
the one-shot ``api`` calls on the mutated graph.
"""

import pytest

from repro import api
from repro.datasets.examples import figure1
from repro.graph.delta import DeltaOp
from repro.session import MatchSession


@pytest.fixture()
def fig():
    fig = figure1()
    fig.graph.thaw()
    return fig


def serving(fig):
    """A refresh-mode session with Figure 1's pattern cached."""
    session = MatchSession(fig.graph, on_mutation="refresh")
    session.cache.simulation(fig.pattern)
    return session


class TestSessionUnderWrites:
    def test_session_follows_updates(self, fig):
        with serving(fig) as session:
            fig.graph.apply_delta(
                [DeltaOp.remove_edge(fig.node("PRG1"), fig.node("DB1"))]
            )
            result, hit = session.cache.simulation(fig.pattern)
            assert hit
            assert result.sim == api.find_matches(fig.pattern, fig.graph).sim
            assert fig.names(result.output_matches()) == {"PM2", "PM3", "PM4"}

    def test_apply_delta_returns_assigned_ids(self, fig):
        with serving(fig) as session:
            results = fig.graph.apply_delta(
                [DeltaOp.add_node("PM"), DeltaOp.add_edge(0, 1)]
            )
            assert results[0] == 18 and results[1] is None
            stats = session.cache.repair_stats(fig.pattern)
            assert stats.ops_applied + stats.ops_skipped == 2

    def test_static_answers_agree_with_batch_api(self, fig):
        with serving(fig) as session:
            batch = api.baseline_matches(fig.pattern, fig.graph, 3)
            assert session.baseline(fig.pattern, 3).matches == batch.matches

    def test_answers_agree_with_batch_api_after_writes(self, fig):
        with serving(fig) as session:
            session.top_k(fig.pattern, 3)
            session.diversified(fig.pattern, 3, lam=0.5, method="approx")
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            fig.graph.add_edge(fig.node("PM4"), fig.node("DB3"))
            graph, pattern = fig.graph, fig.pattern
            pairs = [
                (session.top_k(pattern, 3), api.top_k_matches(pattern, graph, 3)),
                (
                    session.baseline(pattern, 3),
                    api.baseline_matches(pattern, graph, 3),
                ),
                (
                    session.diversified(pattern, 3, lam=0.5, method="approx"),
                    api.diversified_matches(
                        pattern, graph, 3, lam=0.5, method="approx"
                    ),
                ),
            ]
            for got, expected in pairs:
                assert got.matches == expected.matches
                assert got.scores == expected.scores
            assert pairs[2][0].objective_value == pairs[2][1].objective_value

    def test_direct_mutation_calls_also_dispatch(self, fig):
        with serving(fig) as session:
            fig.graph.remove_edge(fig.node("PRG1"), fig.node("DB1"))
            assert session.cache.repair_stats(fig.pattern).ops_applied == 1
