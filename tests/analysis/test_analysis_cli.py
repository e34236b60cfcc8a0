"""CLI behaviour: exit codes, formats, baselines, explain, meta-check."""

from __future__ import annotations

import json
import subprocess

import pytest

from _fixtures import write_file
from repro.analysis import cli
from repro.analysis.baseline import PLACEHOLDER_JUSTIFICATION
from repro.analysis.cli import main
from repro.analysis.rules import ALL_RULES

MUTABLE_DEFAULT = """
    def collect(values, seen=[]):
        return seen
"""

#: One seeded violation per project rule — each must drive a non-zero
#: exit when pointed at directly (the ISSUE 7 acceptance check).
SEEDED = {
    "R1": (
        "repro/graph/digraph.py",
        """
        class Graph:
            def add_edge(self, u, v):
                self._adj[u].append(v)
                self._emit(DeltaOp(ADD_EDGE, u, v))
        """,
    ),
    "R2": (
        "repro/topk/wrapper.py",
        """
        def top_k(pattern, graph, k, use_csr=None):
            return run(pattern, graph, k, bool(use_csr))
        """,
    ),
    "R3": (
        "repro/topk/hot.py",
        """
        from repro.obs import trace

        def run(batches):
            for batch in batches:
                with trace("engine.batch"):
                    batch.run()
        """,
    ),
    "R5": ("repro/util.py", MUTABLE_DEFAULT),
    "R7": (
        "repro/graph/csr.py",
        """
        class CSRSnapshot:
            __slots__ = ("indptr", "_shard_lock")
            _TRANSIENT_SLOTS = ()

            def __getstate__(self):
                return {}
        """,
    ),
    "R8": (
        "repro/session/pools.py",
        """
        import threading

        _POOLS = {}
        _POOLS_LOCK = threading.Lock()

        def get_pool(workers):
            with _POOLS_LOCK:
                _POOLS[workers] = object()

        def drop_pool(workers):
            _POOLS.pop(workers, None)
        """,
    ),
    "R9": (
        "repro/session/cache.py",
        """
        class SessionCache:
            def bucket(self, snapshot, label):
                key = ("bucket", snapshot, label)
                return self._store.get(key)
        """,
    ),
    # The field name must not occur in the real test tree: single-file
    # targets anchor at the repo root, so R10's corpus is tests/.
    "R10": (
        "repro/session/config.py",
        """
        class ExecutionConfig:
            frobnicate_mode: bool = False
        """,
    ),
}


class TestSeededViolations:
    @pytest.mark.parametrize("rule_id", sorted(SEEDED))
    def test_each_rule_fails_on_its_seeded_violation(
        self, rule_id, tmp_path, capsys
    ):
        rel, source = SEEDED[rule_id]
        path = write_file(tmp_path, rel, source)
        assert main([str(path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert f"{rule_id} (" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write_file(
            tmp_path, "repro/util.py", "def collect(values):\n    return values\n"
        )
        assert main([str(path), "--no-baseline"]) == 0


class TestFormats:
    def test_json_report_is_parseable_and_fingerprinted(self, tmp_path, capsys):
        path = write_file(tmp_path, "repro/util.py", MUTABLE_DEFAULT)
        assert main([str(path), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["summary"]["new"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "R5"
        assert "::" in finding["fingerprint"]

    def test_verbose_text_shows_suppressed(self, tmp_path, capsys):
        path = write_file(
            tmp_path,
            "repro/util.py",
            "def collect(values, seen=[]):  # repro: noqa[R5]\n    return seen\n",
        )
        assert main([str(path), "--no-baseline", "-v"]) == 0
        assert "suppressed (# repro: noqa):" in capsys.readouterr().out


class TestRuleSelection:
    def test_rules_filter_limits_the_run(self, tmp_path, capsys):
        path = write_file(tmp_path, "repro/util.py", MUTABLE_DEFAULT)
        assert main([str(path), "--no-baseline", "--rules", "R6"]) == 0

    def test_unknown_rule_id_is_a_usage_error(self, tmp_path, capsys):
        path = write_file(tmp_path, "repro/util.py", MUTABLE_DEFAULT)
        assert main([str(path), "--rules", "R99"]) == 2

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2


class TestExplainAndList:
    def test_list_rules_names_all_six(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.id)
    def test_explain_prints_rationale_and_provenance(self, rule, capsys):
        assert main(["--explain", rule.id]) == 0
        out = capsys.readouterr().out
        assert rule.title in out
        assert "Motivated by:" in out
        assert f"noqa[{rule.id}]" in out

    def test_explain_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["--explain", "R99"]) == 2


class TestBaselineWorkflow:
    def test_write_then_justify_then_pass_then_go_stale(self, tmp_path, capsys):
        path = write_file(tmp_path, "repro/util.py", MUTABLE_DEFAULT)
        baseline = tmp_path / "baseline.json"

        # 1. Grandfather the finding.
        assert main([str(path), "--baseline", str(baseline), "--write-baseline"]) == 0
        payload = json.loads(baseline.read_text())
        (entry,) = payload["findings"]
        assert entry["justification"] == PLACEHOLDER_JUSTIFICATION

        # 2. The placeholder is rejected until a human justifies it.
        assert main([str(path), "--baseline", str(baseline)]) == 1
        assert "without justification" in capsys.readouterr().err

        # 3. Justified: the finding is baselined, the run passes.
        entry["justification"] = "legacy sentinel, scheduled for PR 8"
        baseline.write_text(json.dumps(payload))
        assert main([str(path), "--baseline", str(baseline)]) == 0

        # 4. Fixing the code makes the entry stale — and that fails too,
        #    so the baseline can only shrink deliberately.
        path.write_text("def collect(values, seen=None):\n    return seen\n")
        assert main([str(path), "--baseline", str(baseline)]) == 1
        assert "stale baseline" in capsys.readouterr().out

        # 5. --write-baseline prunes it back to empty.
        assert main([str(path), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert json.loads(baseline.read_text())["findings"] == []

    def test_no_baseline_ignores_the_file(self, tmp_path, capsys):
        path = write_file(tmp_path, "repro/util.py", MUTABLE_DEFAULT)
        baseline = tmp_path / "baseline.json"
        assert main([str(path), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main([str(path), "--baseline", str(baseline), "--no-baseline"]) == 1


def _clean_tree(tmp_path):
    """Two clean source files under one throwaway analysis root."""
    root = tmp_path / "proj"
    write_file(root, "repro/util.py", "def collect(values):\n    return values\n")
    write_file(root, "repro/extra.py", "def double(value):\n    return value * 2\n")
    return root


class TestFindingsCache:
    def test_second_run_is_served_from_cache(self, tmp_path, capsys):
        root = _clean_tree(tmp_path)
        assert main([str(root)]) == 0
        assert "(0 from cache)" in capsys.readouterr().err
        assert (root / ".repro-analysis-cache" / "findings.json").exists()

        assert main([str(root)]) == 0
        assert "(2 from cache)" in capsys.readouterr().err

    def test_comment_edit_elsewhere_keeps_other_entries_warm(
        self, tmp_path, capsys
    ):
        root = _clean_tree(tmp_path)
        assert main([str(root)]) == 0
        capsys.readouterr()
        # A comment changes the file's content hash but none of the
        # cross-module facts: only the edited file re-checks.
        target = root / "repro" / "util.py"
        target.write_text(target.read_text() + "# trailing note\n")
        assert main([str(root)]) == 0
        assert "(1 from cache)" in capsys.readouterr().err

    def test_test_file_edit_keeps_every_entry_warm(
        self, tmp_path, capsys, monkeypatch
    ):
        # The real layout: the default target src/repro, tests/ beside
        # it.  The test tree reaches the cache only through which config
        # toggles it names (R10), so an edit that changes no such name
        # leaves every entry valid.
        root = tmp_path / "proj"
        target = root / "src" / "repro"
        write_file(
            target,
            "session/config.py",
            """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class ExecutionConfig:
                use_fast: bool = True
            """,
        )
        write_file(
            target,
            "engine.py",
            """
            def run(graph, config):
                if config.use_fast:
                    return fast(graph)
                return serial(graph)
            """,
        )
        test_file = write_file(
            root,
            "tests/test_engine.py",
            "def test_use_fast():\n    assert run(g, cfg(use_fast=False))\n",
        )
        monkeypatch.setattr(cli, "REPO_ROOT", root)
        monkeypatch.setattr(cli, "DEFAULT_TARGET", target)
        monkeypatch.setattr(cli, "DEFAULT_BASELINE", root / "analysis-baseline.json")
        assert main([]) == 0
        assert "(0 from cache)" in capsys.readouterr().err
        test_file.write_text(test_file.read_text() + "# trailing note\n")
        assert main([]) == 0
        assert "(2 from cache)" in capsys.readouterr().err
        # Dropping the toggle's last mention is a fact R10 reads: the
        # cache goes cold and the finding surfaces.
        test_file.write_text("def test_engine():\n    pass\n")
        assert main([]) == 1
        captured = capsys.readouterr()
        assert "(0 from cache)" in captured.err
        assert "R10 (" in captured.out

    def test_no_cache_flag_skips_cache_entirely(self, tmp_path, capsys):
        root = _clean_tree(tmp_path)
        assert main([str(root), "--no-cache"]) == 0
        assert not (root / ".repro-analysis-cache").exists()

    def test_cached_findings_still_fail_the_run(self, tmp_path, capsys):
        root = tmp_path / "proj"
        write_file(root, "repro/util.py", MUTABLE_DEFAULT)
        assert main([str(root), "--no-baseline"]) == 1
        capsys.readouterr()
        assert main([str(root), "--no-baseline"]) == 1
        captured = capsys.readouterr()
        assert "(1 from cache)" in captured.err
        assert "R5 (" in captured.out


class TestChangedScope:
    def _git(self, root, *argv):
        subprocess.run(
            ["git", "-C", str(root), *argv],
            check=True,
            capture_output=True,
        )

    def _committed_tree(self, tmp_path):
        root = _clean_tree(tmp_path)
        self._git(root, "init", "-q")
        self._git(root, "add", ".")
        self._git(
            root,
            "-c",
            "user.email=ci@example.invalid",
            "-c",
            "user.name=ci",
            "commit",
            "-qm",
            "seed",
        )
        return root

    def test_changed_scopes_to_modified_files(self, tmp_path, capsys):
        root = self._committed_tree(tmp_path)
        (root / "repro" / "util.py").write_text(
            "def collect(values):\n    return list(values)\n"
        )
        assert main([str(root), "--changed", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "checked 1 file(s)" in err
        assert "[changed-only]" in err

    def test_changed_with_clean_tree_checks_nothing(self, tmp_path, capsys):
        root = self._committed_tree(tmp_path)
        assert main([str(root), "--changed", "--no-cache"]) == 0
        assert "checked 0 file(s)" in capsys.readouterr().err

    def test_changed_finds_violations_in_touched_files(self, tmp_path, capsys):
        root = self._committed_tree(tmp_path)
        (root / "repro" / "util.py").write_text(
            "def collect(values, seen=[]):\n    return seen\n"
        )
        assert main([str(root), "--changed", "--no-baseline", "--no-cache"]) == 1
        assert "R5 (" in capsys.readouterr().out

    def test_changed_outside_a_work_tree_is_a_usage_error(
        self, tmp_path, capsys
    ):
        root = _clean_tree(tmp_path)
        assert main([str(root), "--changed", "--no-cache"]) == 2
        assert "git work tree" in capsys.readouterr().err


class TestJobs:
    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        root = tmp_path / "proj"
        write_file(root, "repro/util.py", MUTABLE_DEFAULT)
        write_file(root, "repro/extra.py", "def double(value):\n    return value * 2\n")
        serial = main([str(root), "--no-baseline", "--no-cache", "--format", "json"])
        serial_payload = json.loads(capsys.readouterr().out)
        parallel = main(
            [str(root), "--no-baseline", "--no-cache", "--jobs", "2", "--format", "json"]
        )
        parallel_payload = json.loads(capsys.readouterr().out)
        assert serial == parallel == 1
        assert serial_payload["findings"] == parallel_payload["findings"]


class TestSarif:
    def test_sarif_log_structure_and_exit_code(self, tmp_path, capsys):
        root = tmp_path / "proj"
        write_file(root, "repro/util.py", MUTABLE_DEFAULT)
        out = tmp_path / "out" / "analysis.sarif"
        assert (
            main(
                [
                    str(root),
                    "--no-baseline",
                    "--no-cache",
                    "--format",
                    "sarif",
                    "--output",
                    str(out),
                ]
            )
            == 1
        )
        log = json.loads(out.read_text())
        # The SARIF 2.1.0 envelope code scanning requires.
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.analysis"
        assert {rule["id"] for rule in driver["rules"]} == {
            rule.id for rule in ALL_RULES
        }
        (result,) = run["results"]
        assert result["ruleId"] == "R5"
        assert result["level"] == "error"
        assert "partialFingerprints" in result
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/util.py"
        assert location["region"]["startLine"] >= 1

    def test_suppressed_findings_marked_in_sarif(self, tmp_path, capsys):
        root = tmp_path / "proj"
        write_file(
            root,
            "repro/util.py",
            "def collect(values, seen=[]):  # repro: noqa[R5]\n    return seen\n",
        )
        assert (
            main(
                [str(root), "--no-baseline", "--no-cache", "--format", "sarif"]
            )
            == 0
        )
        log = json.loads(capsys.readouterr().out)
        (result,) = log["runs"][0]["results"]
        assert result["suppressions"] == [{"kind": "inSource"}]


class TestLiveTree:
    def test_repo_is_clean_modulo_committed_baseline(self, capsys):
        """The meta-check: `python -m repro.analysis` passes on the tree.

        This is the tier-2 gate ISSUE 7 asks for — any new violation of
        R1–R6 anywhere under src/repro fails this test until fixed,
        suppressed with a justified noqa, or deliberately baselined.
        """
        code = main([])
        output = capsys.readouterr().out
        assert code == 0, f"repro.analysis found new violations:\n{output}"
