"""Shared helpers: build throwaway projects shaped like the real tree.

Rules key on repo-relative path patterns (``graph/digraph.py``,
``repro/topk/`` ...), so fixtures write files under a ``src/repro/...``
skeleton inside ``tmp_path`` and load with ``root=tmp_path`` — the
fixture modules then scope exactly like their real counterparts.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.core import AnalysisReport, Project, load_project, run_analysis
from repro.analysis.rules import ALL_RULES, get_rule

def build_project(tmp_path: Path, files: dict[str, str]) -> Project:
    """Write a fixture tree and load every file in it."""
    for rel, source in files.items():
        write_file(tmp_path, rel, source)
    return load_project([tmp_path], root=tmp_path)


def check(tmp_path: Path, files: dict[str, str], *rule_ids: str) -> AnalysisReport:
    """Run the named rules (default: all) over a fixture tree."""
    project = build_project(tmp_path, files)
    if rule_ids:
        rules = [get_rule(rule_id) for rule_id in rule_ids]
        assert all(rule is not None for rule in rules)
    else:
        rules = list(ALL_RULES)
    return run_analysis(project, rules)


def write_file(tmp_path: Path, rel: str, source: str) -> Path:
    """Write one fixture file and return its absolute path (CLI tests)."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path
