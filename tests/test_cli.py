"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.io import load_json
from repro.patterns.io import save_pattern
from repro.workloads.paper_queries import youtube_q2


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert main(["generate", "--dataset", "synthetic", "--nodes", "300",
                 "--edges", "1200", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_graph(self, graph_file):
        g = load_json(graph_file)
        assert g.num_nodes == 300 and g.num_edges == 1200

    def test_dag_flag(self, tmp_path):
        from repro.graph.algorithms import is_dag

        path = tmp_path / "dag.json"
        main(["generate", "--dataset", "synthetic", "--nodes", "200",
              "--edges", "600", "--dag", "--out", str(path)])
        assert is_dag(load_json(path))

    def test_surrogate_dataset(self, tmp_path):
        path = tmp_path / "amz.json"
        main(["generate", "--dataset", "amazon", "--scale", "0.05", "--out", str(path)])
        g = load_json(path)
        assert g.attr(0, "group") is not None


class TestInfo:
    def test_prints_summary(self, graph_file, capsys):
        assert main(["info", "--graph", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "|V| = 300" in out and "SCCs" in out


class TestMatch:
    def _pattern_file(self, tmp_path, graph_file):
        # Extract a matching pattern from the generated graph itself.
        from repro.workloads.pattern_gen import random_dag_pattern

        g = load_json(graph_file)
        pattern = random_dag_pattern(g, 3, 2, seed=1)
        path = tmp_path / "q.json"
        save_pattern(pattern, path)
        return path

    def test_topk_json_output(self, tmp_path, graph_file, capsys):
        pattern_file = self._pattern_file(tmp_path, graph_file)
        assert main(["match", "--graph", str(graph_file), "--pattern",
                     str(pattern_file), "--k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] in ("TopK", "TopKDAG")
        assert len(payload["matches"]) <= 3

    def test_diversify_flag(self, tmp_path, graph_file, capsys):
        pattern_file = self._pattern_file(tmp_path, graph_file)
        assert main(["match", "--graph", str(graph_file), "--pattern",
                     str(pattern_file), "--k", "3", "--diversify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] in ("TopKDH", "TopKDAGDH")
        assert "objective_value" in payload

    def test_forced_algorithm(self, tmp_path, graph_file, capsys):
        pattern_file = self._pattern_file(tmp_path, graph_file)
        assert main(["match", "--graph", str(graph_file), "--pattern",
                     str(pattern_file), "--algorithm", "Match", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "Match"

    def test_human_readable_output(self, tmp_path, graph_file, capsys):
        pattern_file = self._pattern_file(tmp_path, graph_file)
        assert main(["match", "--graph", str(graph_file), "--pattern",
                     str(pattern_file), "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "matches in" in out


class TestUpdateStream:
    def _inputs(self, tmp_path, graph_file):
        from repro.graph.delta import save_delta_file
        from repro.workloads.pattern_gen import random_dag_pattern
        from repro.workloads.update_stream import random_update_stream

        g = load_json(graph_file)
        pattern = random_dag_pattern(g, 3, 2, seed=1)
        pattern_file = tmp_path / "q.json"
        save_pattern(pattern, pattern_file)
        delta_file = tmp_path / "d.jsonl"
        save_delta_file(random_update_stream(g, 40, seed=2), delta_file)
        return pattern_file, delta_file

    def _replay(self, tmp_path, graph_file, capsys, *flags):
        """Run ``update-stream --json --out``; returns the payload, the
        pattern, the delta file and the replayed graph."""
        from repro.patterns.io import load_pattern

        pattern_file, delta_file = self._inputs(tmp_path, graph_file)
        out_file = tmp_path / "after.json"
        assert main(["update-stream", "--graph", str(graph_file),
                     "--pattern", str(pattern_file), "--deltas", str(delta_file),
                     "--k", "3", "--json", "--out", str(out_file), *flags]) == 0
        payload = json.loads(capsys.readouterr().out.split("wrote")[0])
        return payload, load_pattern(pattern_file), delta_file, load_json(out_file)

    def test_replay_reports_view_state(self, tmp_path, graph_file, capsys):
        from dataclasses import asdict

        from repro.graph.delta import load_delta_file
        from repro.session import MatchSession

        payload, pattern, delta_file, _ = self._replay(tmp_path, graph_file, capsys)
        assert payload["algorithm"] == "Match"
        assert payload["ops_replayed"] == 40
        view = payload["view"]
        # remove_node ops expand into per-edge events, so the cache sees
        # at least one event per replayed op.
        assert view["ops_applied"] + view["ops_skipped"] >= 40
        assert len(payload["matches"]) <= 3
        # The block is the cache's repair record of the same replay.
        graph = load_json(graph_file)
        with MatchSession(graph, on_mutation="refresh") as session:
            session.cache.simulation(pattern)
            graph.apply_delta(load_delta_file(delta_file))
            stats = asdict(session.cache.repair_stats(pattern))
            total = session.cache.simulation(pattern)[0].total
        assert stats["ops_applied"] > 0
        assert view == {"total": total, **stats}

    def test_final_answer_matches_batch_rerun(self, tmp_path, graph_file, capsys):
        from repro import api

        payload, pattern, _, updated = self._replay(tmp_path, graph_file, capsys)
        expected = api.baseline_matches(pattern, updated, 3)
        assert expected.matches
        assert [m["node"] for m in payload["matches"]] == expected.matches
        assert [m["score"] for m in payload["matches"]] == [
            round(expected.scores[v], 4) for v in expected.matches
        ]

    def test_diversified_replay(self, tmp_path, graph_file, capsys):
        from repro import api

        payload, pattern, _, updated = self._replay(
            tmp_path, graph_file, capsys, "--diversify"
        )
        expected = api.diversified_matches(pattern, updated, 3, method="approx")
        assert payload["algorithm"] == "TopKDiv"
        assert expected.matches
        assert [m["node"] for m in payload["matches"]] == expected.matches
        assert [m["score"] for m in payload["matches"]] == [
            round(expected.scores[v], 4) for v in expected.matches
        ]
        assert payload["objective_value"] == round(expected.objective_value, 4)


class TestBatch:
    def _batch_file(self, tmp_path, graph_file, inline: bool = False):
        from repro.patterns.io import pattern_to_dict
        from repro.workloads.pattern_gen import random_dag_pattern

        g = load_json(graph_file)
        dag = random_dag_pattern(g, 3, 2, seed=1)
        other = random_dag_pattern(g, 4, 3, seed=5)
        dag_path = tmp_path / "q_dag.json"
        save_pattern(dag, dag_path)
        queries = [
            {"pattern": "q_dag.json", "k": 5},
            {"pattern": pattern_to_dict(other) if inline else "q_dag.json",
             "k": 3, "mode": "diversified", "lam": 0.4},
            {"pattern": "q_dag.json", "k": 5, "mode": "baseline"},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"format": "repro-batch-json", "queries": queries}))
        return path, dag_path

    def test_batch_json_output_matches_one_shot(self, tmp_path, graph_file, capsys):
        from repro import api
        from repro.patterns.io import load_pattern

        batch_file, dag_path = self._batch_file(tmp_path, graph_file, inline=True)
        assert main(["batch", "--graph", str(graph_file),
                     "--queries", str(batch_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["queries"]) == 3
        graph = load_json(graph_file)
        dag = load_pattern(dag_path)
        expected_topk = api.top_k_matches(dag, graph, 5)
        assert payload["queries"][0]["matches"] == expected_topk.matches
        expected_base = api.baseline_matches(dag, graph, 5)
        assert payload["queries"][2]["algorithm"] == "Match"
        assert payload["queries"][2]["matches"] == expected_base.matches
        cache = payload["session"]["cache"]
        assert cache["sim_hits"] >= 1  # the repeats actually shared

    def test_batch_text_output(self, tmp_path, graph_file, capsys):
        batch_file, _ = self._batch_file(tmp_path, graph_file)
        assert main(["batch", "--graph", str(graph_file),
                     "--queries", str(batch_file)]) == 0
        out = capsys.readouterr().out
        assert "session: 3 queries" in out and "cache" in out

    def test_batch_rejects_bad_format(self, tmp_path, graph_file):
        from repro.errors import MatchingError

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "nope", "queries": []}))
        with pytest.raises(MatchingError):
            main(["batch", "--graph", str(graph_file), "--queries", str(bad)])

    def test_batch_rejects_unknown_query_keys(self, tmp_path, graph_file):
        from repro.errors import MatchingError

        _, dag_path = self._batch_file(tmp_path, graph_file)
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({
            "format": "repro-batch-json",
            "queries": [{"pattern": dag_path.name, "mod": "diversified"}],
        }))
        with pytest.raises(MatchingError, match="unknown keys.*mod"):
            main(["batch", "--graph", str(graph_file), "--queries", str(bad)])

    @pytest.mark.parametrize(
        "query", [{"output_node": 99}, {"output_node": 1, "mode": "baseline"}]
    )
    def test_batch_rejects_bad_output_node(self, tmp_path, graph_file, query):
        from repro.errors import MatchingError

        _, dag_path = self._batch_file(tmp_path, graph_file)
        bad = tmp_path / "output.json"
        bad.write_text(json.dumps({
            "format": "repro-batch-json",
            "queries": [{"pattern": dag_path.name, **query}],
        }))
        with pytest.raises(MatchingError, match="output_node"):
            main(["batch", "--graph", str(graph_file), "--queries", str(bad)])
