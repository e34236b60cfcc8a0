"""Per-file findings cache: content-hash keyed, environment-scoped.

The analyzer's rules are *project* invariants — a module's findings can
depend on facts defined elsewhere (R1 folds key constants across
modules, R5 collects frozen dataclasses project-wide, R7 resolves
``_TRANSIENT_SLOTS`` through base classes, R10 cross-checks the test
tree).  A per-file cache is therefore sound only under two keys:

* the file's own **content hash** — any edit re-checks the file; and
* an **environment fingerprint** folding in every cross-module fact a
  rule consumes: the analyzer's own source, the rule set, each
  module's constant/import/class-shape facts, the toggle-guard facts
  R10 reads, and which toggles the test tree names.  Any change there
  drops the whole cache — conservative, but a no-op edit elsewhere
  keeps it warm.  The test tree enters only through that last fact, so
  a test edit that names no new toggle (and drops none) keeps every
  entry.

The cache lives in ``.repro-analysis-cache/findings.json`` at the repo
root (gitignored; CI restores it like ``.mypy_cache``).  Entries store
fully rendered findings, so a warm hit skips rule execution *and* the
module's parent-map/noqa builds.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import Finding, Project, Rule, SourceModule

CACHE_VERSION = 1
#: Directory (relative to the repo root) the cache file lives in.
CACHE_DIR_NAME = ".repro-analysis-cache"
CACHE_FILE_NAME = "findings.json"


def _analyzer_source_digest() -> str:
    """Hash of the analysis package's own source files.

    Editing a rule (or this module) must invalidate every cached
    finding; hashing the package beats remembering to bump a version.
    """
    digest = hashlib.sha256()
    package = Path(__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _toggle_field_names(project: Project) -> tuple[str, ...]:
    """ExecutionConfig field names, for the R10 facts below."""
    config = project.find_module("session/config.py")
    if config is None:
        return ()
    names: list[str] = []
    for node in ast.walk(config.tree):
        if isinstance(node, ast.ClassDef) and node.name == "ExecutionConfig":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    names.append(stmt.target.id)
    return tuple(sorted(names))


def _boolean_context_exprs(tree: ast.Module) -> Iterable[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node.test
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif isinstance(node, ast.Assert):
            yield node.test
        elif isinstance(node, ast.BoolOp):
            yield from node.values
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.Compare):
            yield node.left
            yield from node.comparators
        elif isinstance(node, ast.Match):
            yield node.subject


def _identifiers_in(expr: ast.expr) -> Iterable[str]:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _named_in_tests(name: str, project: Project) -> bool:
    """Whether any test file names ``name`` as a whole word — the one
    fact R10 reads from the test corpus."""
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return any(pattern.search(text) for text in project.test_corpus.values())


def _module_facts_digest(module: SourceModule, toggles: tuple[str, ...]) -> str:
    """Everything *other modules'* findings may read from this one.

    Covers the constant-folding surface (R1), imports, class shapes —
    bases, decorators, body-level assignments (``__slots__``,
    ``_TRANSIENT_SLOTS``, dataclass fields), ``__getstate__`` presence
    (R5/R7) — plus the branch-identifier and toggle-alias facts R10's
    cross-check consumes.
    """
    digest = hashlib.sha256()
    digest.update(module.rel_path.encode("utf-8"))
    for name, value in sorted(module.constants.items()):
        digest.update(f"const:{name}={value}\n".encode("utf-8"))
    for name, expr in sorted(module.constant_exprs.items()):
        digest.update(f"assign:{name}={ast.dump(expr)}\n".encode("utf-8"))
    for name, origin in sorted(module.imports.items()):
        digest.update(f"import:{name}={origin}\n".encode("utf-8"))
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        digest.update(f"class:{node.name}\n".encode("utf-8"))
        for base in node.bases:
            digest.update(f"base:{ast.dump(base)}\n".encode("utf-8"))
        for decorator in node.decorator_list:
            digest.update(f"deco:{ast.dump(decorator)}\n".encode("utf-8"))
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                digest.update(f"body:{ast.dump(stmt)}\n".encode("utf-8"))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name in ("__getstate__", "__setstate__"):
                    digest.update(f"method:{stmt.name}\n".encode("utf-8"))
    branch_ids: set[str] = set()
    toggle_set = set(toggles)
    toggle_aliases: set[tuple[str, str]] = set()
    for expr in _boolean_context_exprs(module.tree):
        branch_ids.update(_identifiers_in(expr))
    if toggle_set:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg is None:
                        continue
                    for ident in _identifiers_in(keyword.value):
                        if ident in toggle_set:
                            toggle_aliases.add((ident, keyword.arg))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    for ident in _identifiers_in(node.value):
                        if ident in toggle_set:
                            toggle_aliases.add((ident, target.id))
    for ident in sorted(branch_ids):
        digest.update(f"branch:{ident}\n".encode("utf-8"))
    for toggle, alias in sorted(toggle_aliases):
        digest.update(f"alias:{toggle}->{alias}\n".encode("utf-8"))
    return digest.hexdigest()


def environment_fingerprint(project: Project, rules: Sequence[Rule]) -> str:
    """The cross-module state every cached finding implicitly read."""
    digest = hashlib.sha256()
    digest.update(f"version:{CACHE_VERSION}\n".encode("utf-8"))
    digest.update(_analyzer_source_digest().encode("utf-8"))
    digest.update(",".join(rule.id for rule in rules).encode("utf-8"))
    toggles = _toggle_field_names(project)
    digest.update(("toggles:" + ",".join(toggles) + "\n").encode("utf-8"))
    for module in sorted(project.modules, key=lambda m: m.rel_path):
        digest.update(_module_facts_digest(module, toggles).encode("utf-8"))
    for name in toggles:
        named = _named_in_tests(name, project)
        digest.update(f"tested:{name}={named}\n".encode("utf-8"))
    return digest.hexdigest()


class FindingsCache:
    """``rel_path -> (content hash, findings)`` under one environment.

    A lookup hits only when the stored environment fingerprint matches
    the current one *and* the file's content hash is unchanged; a
    fingerprint mismatch discards every entry at load.
    """

    def __init__(self, path: Path, environment: str) -> None:
        self.path = path
        self.environment = environment
        self.entries: dict[str, dict[str, object]] = {}
        self.dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("version") != CACHE_VERSION:
            return
        if payload.get("environment") != self.environment:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = {
                rel: entry
                for rel, entry in entries.items()
                if isinstance(rel, str) and isinstance(entry, dict)
            }

    # ------------------------------------------------------------------
    def lookup(self, module: SourceModule) -> list[Finding] | None:
        entry = self.entries.get(module.rel_path)
        if entry is None or entry.get("hash") != module.content_hash:
            return None
        raw_findings = entry.get("findings")
        if not isinstance(raw_findings, list):
            return None
        findings: list[Finding] = []
        for raw in raw_findings:
            if not isinstance(raw, dict):
                return None
            try:
                findings.append(
                    Finding(
                        rule=str(raw["rule"]),
                        path=str(raw["path"]),
                        line=int(raw["line"]),  # type: ignore[call-overload]
                        symbol=str(raw["symbol"]),
                        message=str(raw["message"]),
                        detail=str(raw["detail"]),
                        suppressed=bool(raw["suppressed"]),
                    )
                )
            except (KeyError, TypeError, ValueError):
                return None
        return findings

    def store(self, module: SourceModule, findings: list[Finding]) -> None:
        self.entries[module.rel_path] = {
            "hash": module.content_hash,
            "findings": [finding.as_dict() for finding in findings],
        }
        self.dirty = True

    def prune(self, keep: set[str]) -> None:
        """Drop entries for files no longer under analysis."""
        stale = [rel for rel in self.entries if rel not in keep]
        for rel in stale:
            del self.entries[rel]
            self.dirty = True

    def save(self) -> None:
        if not self.dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "environment": self.environment,
            "entries": self.entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)
        self.dirty = False


def open_cache(
    project: Project, rules: Sequence[Rule], cache_dir: Path
) -> FindingsCache:
    """The findings cache for ``project`` under ``cache_dir``."""
    environment = environment_fingerprint(project, rules)
    return FindingsCache(cache_dir / CACHE_FILE_NAME, environment)
