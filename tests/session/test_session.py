"""MatchSession behaviour: laziness, staleness, cache sharing, views."""

import copy

import pytest

from repro import api
from repro.errors import MatchingError, StaleSessionError
from repro.session import ExecutionConfig, MatchSession, QueryHandle, QuerySpec

from tests.conftest import make_random_graph, make_random_pattern


@pytest.fixture()
def graph():
    return make_random_graph(3, num_nodes=16, num_edges=36)


@pytest.fixture()
def dag_pattern():
    # Seed chosen so the pattern has matches on the ``graph`` fixture.
    return make_random_pattern(7, num_nodes=3, extra_edges=1, cyclic=False)


@pytest.fixture()
def cyclic_pattern_():
    # Seed chosen so the pattern is feasible on the ``graph`` fixture
    # (matches exist — the bound index and pair state actually build).
    return make_random_pattern(0, num_nodes=3, extra_edges=2, cyclic=True)


class TestHandles:
    def test_submit_is_lazy(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            handle = session.submit(dag_pattern, 3)
            assert isinstance(handle, QueryHandle)
            assert not handle.done
            assert session.stats.queries_executed == 0
            result = handle.result()
            assert handle.done
            assert session.stats.queries_executed == 1
            assert handle.result() is result  # cached, not re-executed
            assert session.stats.queries_executed == 1

    def test_result_matches_one_shot(self, graph, dag_pattern):
        expected = api.top_k_matches(dag_pattern, graph, 3)
        with MatchSession(graph) as session:
            got = session.submit(dag_pattern, 3).result()
        assert got.matches == expected.matches
        assert got.scores == expected.scores

    def test_invalid_mode_and_method_rejected(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            with pytest.raises(MatchingError):
                session.submit(dag_pattern, 3, mode="magic")
            with pytest.raises(MatchingError):
                session.submit(dag_pattern, 3, mode="diversified", method="magic")
            with pytest.raises(MatchingError):
                session.submit(dag_pattern, 0)

    @pytest.mark.parametrize(
        "mode, output_node",
        [
            ("topk", 99),
            ("topk", -1),
            ("baseline", 99),
            ("diversified", 99),
            ("baseline", 1),
            ("multi", 1),
        ],
    )
    def test_bad_output_node_rejected(self, fig1, mode, output_node):
        # Figure 1's pattern has 4 query nodes; only topk ranks at
        # another one than the designated output node.
        with MatchSession(fig1.graph) as session:
            with pytest.raises(MatchingError, match="output_node"):
                session.submit(
                    fig1.pattern, 2, mode=mode, output_node=output_node
                ).result()

    def test_output_node_ranks_another_query_node(self, fig1):
        db = fig1.query_nodes["DB"]
        with MatchSession(fig1.graph) as session:
            result = session.submit(fig1.pattern, 2, output_node=db).result()
        assert fig1.names(result.matches) <= {"DB1", "DB2", "DB3"}
        assert len(result.matches) == 2


class TestBatch:
    def test_results_in_input_order_despite_grouping(self, graph, dag_pattern,
                                                     cyclic_pattern_):
        specs = [
            QuerySpec(dag_pattern, k=3),
            QuerySpec(cyclic_pattern_, k=2),
            QuerySpec(dag_pattern, k=2, mode="diversified"),
            QuerySpec(cyclic_pattern_, k=3, mode="baseline"),
            QuerySpec(dag_pattern, k=2, mode="diversified", method="approx"),
        ]
        with MatchSession(graph) as session:
            results = session.run_batch(specs)
        assert len(results) == len(specs)
        algorithms = [r.algorithm for r in results]
        assert algorithms[0].startswith("TopK")
        assert algorithms[2] in ("TopKDH", "TopKDAGDH")
        assert algorithms[3] == "Match"
        assert algorithms[4] == "TopKDiv"
        for spec, result in zip(specs, results):
            one_shot = _one_shot(spec, graph)
            assert result.matches == one_shot.matches
            assert result.scores == one_shot.scores

    def test_accepts_handles_and_specs(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            handle = session.submit(dag_pattern, 2)
            results = session.run_batch([handle, QuerySpec(dag_pattern, k=3)])
            assert results[0] is handle.result()
            assert len(results[1].matches) <= 3

    def test_batch_counter_with_result_reuse(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            results = session.run_batch([QuerySpec(dag_pattern, k=2)] * 3)
            assert session.stats.batches_executed == 1
            # Identical resubmissions are served from the result store —
            # as independent copies, never shared objects.
            assert session.stats.queries_executed == 1
            assert session.stats.results_reused == 2
            assert results[0] is not results[1] and results[1] is not results[2]
            assert results[0].matches == results[1].matches == results[2].matches
            assert results[0].scores == results[1].scores == results[2].scores

    def test_reused_results_are_mutation_safe(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            first = session.top_k(dag_pattern, 2)
            expected = list(first.matches)
            # A caller trashing its answer must not corrupt later serves
            # (nor the stored master).
            first.matches.clear()
            first.scores.clear()
            first.stats.total_matches = 999
            second = session.top_k(dag_pattern, 2)
            assert second.matches == expected
            assert second.stats.total_matches is None
            second.matches.append(-1)
            assert session.top_k(dag_pattern, 2).matches == expected

    def test_result_reuse_disabled(self, graph, dag_pattern):
        with MatchSession(graph, reuse_results=False) as session:
            results = session.run_batch([QuerySpec(dag_pattern, k=2)] * 2)
            assert session.stats.queries_executed == 2
            assert session.stats.results_reused == 0
            assert results[0] is not results[1]
            assert results[0].matches == results[1].matches

    def test_result_reuse_skips_custom_relevance(self, graph, dag_pattern):
        from repro.ranking.relevance import NormalisedRelevance

        with MatchSession(graph) as session:
            fn = NormalisedRelevance()
            session.top_k(dag_pattern, 2, relevance_fn=fn)
            session.top_k(dag_pattern, 2, relevance_fn=fn)
            assert session.stats.queries_executed == 2
            assert session.stats.results_reused == 0

    def test_result_store_dies_with_the_generation(self, graph, dag_pattern):
        with MatchSession(graph, on_mutation="refresh") as session:
            first = session.top_k(dag_pattern, 2)
            graph.add_node("A")
            second = session.top_k(dag_pattern, 2)
            assert second is not first  # recomputed on the new generation
            expected = api.top_k_matches(dag_pattern, graph, 2)
            assert second.matches == expected.matches


class TestCacheSharing:
    def test_repeat_queries_hit_the_cache(self, graph, cyclic_pattern_):
        with MatchSession(graph) as session:
            first = session.top_k(cyclic_pattern_, 3)
            second = session.top_k(cyclic_pattern_, 2)
            diversified = session.diversified(cyclic_pattern_, 2)
        assert first.stats.sim_builds == 1 and first.stats.sim_hits == 0
        assert second.stats.sim_hits == 1 and second.stats.sim_builds == 0
        # One evaluation per pattern × output node, shared by top-k at
        # any k and by TopKDH.
        assert first.stats.paircsr_builds == 1
        assert second.stats.paircsr_hits == 1
        assert diversified.stats.paircsr_hits == 1
        stats = session.cache_stats()
        assert stats["sim_builds"] == 1
        assert stats["sim_hits"] >= 1
        assert stats["paircsr_builds"] == 1
        assert stats["paircsr_hits"] == 2

    def test_match_topkdiv_and_topk_share_one_evaluation(self, graph, cyclic_pattern_):
        specs = [
            QuerySpec(cyclic_pattern_, k=3, mode="baseline"),
            QuerySpec(cyclic_pattern_, k=3, mode="diversified", method="approx"),
            QuerySpec(cyclic_pattern_, k=3),
        ]
        with MatchSession(graph) as session:
            baseline, approx, topk = session.run_batch(specs)
            stats = session.cache_stats()
        assert stats["paircsr_builds"] == 1
        assert stats["paircsr_hits"] >= 1
        assert topk.scores == baseline.scores
        assert approx.matches == api.diversified_matches(
            cyclic_pattern_, graph, 3, method="approx"
        ).matches

    def test_structurally_equal_patterns_share(self, graph, dag_pattern):
        twin = copy.deepcopy(dag_pattern)
        with MatchSession(graph) as session:
            session.top_k(dag_pattern, 2)
            # Different k: bypasses the result store, so this run's
            # engine actually consults the shared artifact caches.
            result = session.top_k(twin, 3)
            stats = session.cache_stats()
        assert result.stats.sim_hits == 1
        assert result.stats.paircsr_hits == 1
        assert stats["paircsr_builds"] == 1

    def test_multi_output_shares_one_compilation(self, graph):
        pattern = make_random_pattern(7, num_nodes=3, extra_edges=1, cyclic=False)
        pattern.set_output(0, 1)
        with MatchSession(graph) as session:
            results = session.top_k_multi(pattern, 2)
            again = session.top_k_multi(pattern, 3)
        assert set(results) == {0, 1}
        stats = session.cache_stats()
        assert stats["sim_builds"] == 1  # one fixpoint for both output nodes
        # One evaluation per output node, reused by the second fan-out.
        assert stats["paircsr_builds"] == 2
        assert stats["paircsr_hits"] == 2
        assert all(res.stats.paircsr_hits == 1 for res in again.values())
        # Per-node answers equal dedicated single-output runs.
        for node, result in results.items():
            single = copy.deepcopy(pattern)
            single.set_output(node)
            expected = api.top_k_matches(single, graph, 2)
            assert result.matches == expected.matches
            assert result.scores == expected.scores

    def test_spec_config_overrides_session_config(self, graph, dag_pattern):
        reference = api.top_k_matches(dag_pattern, graph, 3, optimized=False)
        with MatchSession(graph) as session:
            fast = session.top_k(dag_pattern, 3)
            slow = session.submit(
                dag_pattern, 3, config=ExecutionConfig(optimized=False)
            ).result()
        assert slow.matches == reference.matches
        assert slow.scores == reference.scores
        assert fast.matches  # both arms ran in one session


class TestStaleness:
    def test_refuse_policy(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            done = session.submit(dag_pattern, 2)
            done.result()
            graph.add_node("A")
            assert session.stale
            with pytest.raises(StaleSessionError):
                session.top_k(dag_pattern, 2)
            with pytest.raises(StaleSessionError):
                session.run_batch([QuerySpec(dag_pattern, k=2)])
            # Handles resolved before the mutation keep their answers.
            assert done.result().matches is not None
            session.refresh()
            refreshed = session.top_k(dag_pattern, 2)
            assert refreshed.matches == api.top_k_matches(dag_pattern, graph, 2).matches

    def test_refresh_policy_recompiles_transparently(self, graph, dag_pattern):
        with MatchSession(graph, on_mutation="refresh") as session:
            session.top_k(dag_pattern, 2)
            generation = session.cache.generation
            graph.add_edge(0, graph.num_nodes - 1) if not graph.has_edge(
                0, graph.num_nodes - 1
            ) else graph.remove_edge(0, graph.num_nodes - 1)
            result = session.top_k(dag_pattern, 2)
            assert session.cache.generation == generation + 1
            expected = api.top_k_matches(dag_pattern, graph, 2)
            assert result.matches == expected.matches
            assert result.scores == expected.scores

    def test_refresh_counts(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            graph.add_node("A")
            session.refresh()
            assert session.stats.refreshes == 1
            assert session.cache_stats()["refreshes"] == 1
            # Acknowledging with fresh artifacts does not re-drop them.
            session.refresh()
            assert session.stats.refreshes == 2
            assert session.cache_stats()["refreshes"] == 1

    def test_repair_does_not_waive_the_refuse_latch(self, graph, dag_pattern):
        with MatchSession(graph) as session:
            session.top_k(dag_pattern, 2)
            # The cache repairs the pattern's relation at the write — but
            # the refuse policy must still demand an explicit
            # session.refresh().
            graph.add_node("A")
            stats = session.cache.repair_stats(dag_pattern)
            assert stats.ops_applied + stats.ops_skipped == 1
            assert session.stale
            with pytest.raises(StaleSessionError):
                session.top_k(dag_pattern, 2)
            session.refresh()
            result = session.top_k(dag_pattern, 2)
            expected = api.top_k_matches(dag_pattern, graph, 2)
            assert result.matches == expected.matches

    def test_invalid_policy_rejected(self, graph):
        with pytest.raises(MatchingError):
            MatchSession(graph, on_mutation="panic")

    def test_closed_session_refuses_queries(self, graph, dag_pattern):
        session = MatchSession(graph)
        session.close()
        with pytest.raises(MatchingError):
            session.top_k(dag_pattern, 2)
        # Idempotent close; no listener leak on double close.
        session.close()

    def test_close_detaches_listener(self, graph, dag_pattern):
        session = MatchSession(graph)
        session.top_k(dag_pattern, 2)
        session.close()
        graph.add_node("B")
        assert not session.stale  # no longer subscribed


class TestSessionRepair:
    def test_query_kinds_share_one_relation(self, graph, dag_pattern):
        with MatchSession(graph, on_mutation="refresh") as session:
            relation, _ = session.cache.simulation(dag_pattern)
            session.top_k(dag_pattern, 3)
            session.baseline(dag_pattern, 3)
            session.diversified(dag_pattern, 3, method="approx")
            assert session.cache_stats()["sim_builds"] == 1  # one fixpoint
            assert session.cache.simulation(dag_pattern) == (relation, True)

    def test_relation_stays_consistent_under_updates(
        self, graph, dag_pattern, monkeypatch
    ):
        # Threshold 0: an edge repair that touches a pair falls back to
        # a fixpoint rerun from the repaired rows.
        monkeypatch.setattr(
            "repro.session.cache.repair_threshold", lambda pattern, graph: 0
        )
        with MatchSession(graph, on_mutation="refresh") as session:
            session.cache.simulation(dag_pattern)
            for target in range(3):
                node = graph.add_node(dag_pattern.label(0))
                graph.add_edge(node, target)
            graph.remove_edge(*next(iter(graph.edges())))
            relation, hit = session.cache.simulation(dag_pattern)
            assert hit
            assert relation.sim == api.find_matches(dag_pattern, graph).sim
            result = session.top_k(dag_pattern, 3)
            expected = api.top_k_matches(dag_pattern, graph, 3)
            assert result.matches == expected.matches


def _one_shot(spec: QuerySpec, graph):
    """The looped one-shot counterpart of one batch entry."""
    if spec.mode == "topk":
        return api.top_k_matches(
            spec.pattern, graph, spec.k, relevance_fn=spec.relevance_fn
        )
    if spec.mode == "baseline":
        return api.baseline_matches(
            spec.pattern, graph, spec.k, relevance_fn=spec.relevance_fn
        )
    if spec.mode == "multi":
        return api.top_k_matches_multi(
            spec.pattern, graph, spec.k, relevance_fn=spec.relevance_fn
        )
    return api.diversified_matches(
        spec.pattern, graph, spec.k, lam=spec.lam, method=spec.method,
        objective=spec.objective,
    )
