"""CLI observability surfaces: --trace, --slow-query, the metrics command."""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import main
from repro.graph.io import load_json
from repro.obs import TRACE_FORMAT, load_jsonl
from repro.patterns.io import save_pattern
from repro.workloads.pattern_gen import random_dag_pattern


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert main(["generate", "--dataset", "synthetic", "--nodes", "300",
                 "--edges", "1200", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def pattern_file(tmp_path, graph_file):
    g = load_json(graph_file)
    pattern = random_dag_pattern(g, 3, 2, seed=1)
    path = tmp_path / "q.json"
    save_pattern(pattern, path)
    return path


class TestMatchTrace:
    def test_writes_a_parseable_trace(self, tmp_path, graph_file, pattern_file, capsys):
        trace_file = tmp_path / "trace.jsonl"
        assert main(["match", "--graph", str(graph_file),
                     "--pattern", str(pattern_file), "--k", "3",
                     "--trace", str(trace_file)]) == 0
        spans = load_jsonl(trace_file)
        assert spans
        assert all(s["format"] == TRACE_FORMAT for s in spans)
        assert any(s["name"] == "engine.run" for s in spans)
        err = capsys.readouterr().err
        assert f"wrote {len(spans)} spans" in err

    def test_json_stdout_stays_parseable_alongside_trace(
        self, tmp_path, graph_file, pattern_file, capsys
    ):
        trace_file = tmp_path / "trace.jsonl"
        assert main(["match", "--graph", str(graph_file),
                     "--pattern", str(pattern_file), "--k", "3",
                     "--json", "--trace", str(trace_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "matches" in payload


class TestBatchObservability:
    def _queries_file(self, tmp_path, pattern_file):
        payload = {
            "format": "repro-batch-json",
            "queries": [
                {"pattern": pattern_file.name, "k": 2},
                {"pattern": pattern_file.name, "k": 3},
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(payload))
        return path

    def test_trace_and_slow_query_flags(self, tmp_path, graph_file, pattern_file):
        trace_file = tmp_path / "batch-trace.jsonl"
        queries_file = self._queries_file(tmp_path, pattern_file)
        assert main(["batch", "--graph", str(graph_file),
                     "--queries", str(queries_file),
                     "--trace", str(trace_file),
                     "--slow-query", "30"]) == 0
        names = {s["name"] for s in load_jsonl(trace_file)}
        assert "session.run_batch" in names
        assert "session.query" in names

    def test_slow_query_flag_logs_each_query(
        self, tmp_path, graph_file, pattern_file, caplog
    ):
        queries_file = self._queries_file(tmp_path, pattern_file)
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            assert main(["batch", "--graph", str(graph_file),
                         "--queries", str(queries_file),
                         "--slow-query", "1e-9"]) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.slowquery"]
        assert len(messages) == 2
        assert any(" k=2 " in m for m in messages)
        assert any(" k=3 " in m for m in messages)


class TestMetricsCommand:
    def test_prometheus_output(self, graph_file, pattern_file, capsys):
        assert main(["metrics", "--graph", str(graph_file),
                     "--pattern", str(pattern_file), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_runs_total counter" in out
        assert "repro_engine_elapsed_seconds_bucket" in out

    def test_json_output_to_file(self, tmp_path, graph_file, pattern_file):
        out_file = tmp_path / "metrics.json"
        assert main(["metrics", "--graph", str(graph_file),
                     "--pattern", str(pattern_file), "--k", "3",
                     "--format", "json", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["repro_engine_runs_total"]["type"] == "counter"

    def test_repeat_accumulates_runs(self, graph_file, pattern_file, capsys):
        assert main(["metrics", "--graph", str(graph_file),
                     "--pattern", str(pattern_file), "--k", "3",
                     "--repeat", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        samples = payload["repro_engine_runs_total"]["samples"]
        assert sum(s["value"] for s in samples) == 3
