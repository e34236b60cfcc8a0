"""Analyzer core: source model, suppression parsing, rule running.

The model is deliberately simple — one :class:`SourceModule` per file
(path, text, parsed AST, parent links, noqa map, import table), one
:class:`Project` holding them all.  Rules receive the whole project so
they can cross-reference (e.g. R7 resolves ``_TRANSIENT_SLOTS`` through
base classes defined in other modules).

Suppressions are trailing comments on the flagged line::

    registry.counter(name).inc()  # repro: noqa[R3] -- guarded by the caller

A bare ``# repro: noqa`` suppresses every rule on that line.
Suppressed findings are still collected (reporters show them on
request) but never fail a run.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.baseline import Baseline
    from repro.analysis.incremental import FindingsCache

#: Trailing-comment suppression syntax.  ``# repro: noqa`` (all rules)
#: or ``# repro: noqa[R1,R3]`` (listed rules only).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``symbol`` is the enclosing definition's qualified name (or
    ``<module>``) and ``detail`` a stable discriminator — together with
    ``rule`` and ``path`` they form the line-number-free fingerprint
    the baseline matches on, so findings survive unrelated edits that
    shift lines.
    """

    rule: str
    path: str
    line: int
    symbol: str
    message: str
    detail: str
    suppressed: bool = False

    def fingerprint(self) -> str:
        return f"{self.rule}::{self.path}::{self.symbol}::{self.detail}"

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "detail": self.detail,
            "suppressed": self.suppressed,
            "fingerprint": self.fingerprint(),
        }


class SourceModule:
    """One parsed source file plus the lookup structure rules share."""

    def __init__(self, path: Path, rel_path: str, text: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.text = text
        self.lines = text.splitlines()
        #: Content hash the findings cache keys on (see
        #: :mod:`repro.analysis.incremental`).
        self.content_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.tree = ast.parse(text, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._noqa: dict[int, frozenset[str] | None] | None = None
        self.imports = _collect_imports(self.tree)

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent links, built lazily.

        Only modules that actually run rules pay for the full-tree
        walk — a file served from the findings cache never builds it.
        """
        if self._parents is None:
            table: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    table[child] = parent
            self._parents = table
        return self._parents

    @property
    def noqa(self) -> dict[int, frozenset[str] | None]:
        if self._noqa is None:
            self._noqa = self._parse_noqa()
        return self._noqa

    def _parse_noqa(self) -> dict[int, frozenset[str] | None]:
        """Line number -> suppressed rule ids (``None`` = all rules)."""
        table: dict[int, frozenset[str] | None] = {}
        for lineno, line in enumerate(self.lines, start=1):
            if "#" not in line:
                continue
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            listed = match.group(1)
            if listed is None:
                table[lineno] = None
            else:
                table[lineno] = frozenset(
                    part.strip().upper()
                    for part in listed.split(",")
                    if part.strip()
                )
        return table

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if line not in self.noqa:
            return False
        rules = self.noqa[line]
        return rules is None or rule_id.upper() in rules

    def qualname_of(self, node: ast.AST) -> str:
        """The dotted name of the definitions enclosing ``node``."""
        parts: list[str] = []
        current: ast.AST | None = node
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(current.name)
            current = self.parents.get(current)
        return ".".join(reversed(parts)) or "<module>"

    def enclosing_loop(self, node: ast.AST) -> ast.AST | None:
        """The innermost ``for``/``while`` ``node`` sits in, if any.

        Stops at function boundaries: a call inside a nested ``def``
        that is merely *defined* in a loop does not run per iteration.
        """
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.For, ast.While)):
                return current
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None
            current = self.parents.get(current)
        return None

    def guarding_tests(self, node: ast.AST) -> Iterator[ast.expr]:
        """Tests of every ``if`` whose *body* lexically contains ``node``.

        Walks outward through the parent chain; an ``orelse`` position
        also yields the test (rules that need the polarity inspect the
        expression themselves)."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, ast.If):
                yield current.test
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return
            current = self.parents.get(current)


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully qualified origin for top-level imports."""
    table: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class Project:
    """Every module under analysis."""

    def __init__(self, modules: list[SourceModule]) -> None:
        self.modules = modules


class Rule:
    """Base class for project-invariant checks.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rationale`` and ``reference`` feed ``--explain`` — the reference
    points at the CHANGES.md incident or ROADMAP item that motivated
    the invariant, so suppressions are informed decisions.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    reference: str = ""

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: SourceModule,
        node: ast.AST,
        message: str,
        detail: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            path=module.rel_path,
            line=line,
            symbol=module.qualname_of(node),
            message=message,
            detail=detail,
            suppressed=module.is_suppressed(self.id, line),
        )


@dataclass
class AnalysisReport:
    """The outcome of one analyzer run, partitioned for reporting."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()
    stale_baseline: list[str] = field(default_factory=list)
    #: Files served from the per-file findings cache this run.
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.new

    def all_findings(self) -> list[Finding]:
        return [*self.new, *self.baselined, *self.suppressed]


def iter_source_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def load_project(paths: Iterable[Path], root: Path | None = None) -> Project:
    """Parse every ``.py`` under ``paths`` into a :class:`Project`.

    ``root`` anchors the repo-relative paths findings and baselines
    use; it defaults to the common parent so fingerprints are stable
    regardless of the invocation directory.
    """
    resolved = [Path(p).resolve() for p in paths]
    if root is None:
        root = _common_root(resolved)
    modules: list[SourceModule] = []
    for file_path in iter_source_files(resolved):
        try:
            rel = file_path.relative_to(root).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        text = file_path.read_text(encoding="utf-8")
        modules.append(SourceModule(file_path, rel, text))
    return Project(modules)


def _common_root(paths: list[Path]) -> Path:
    if not paths:
        return Path.cwd()
    candidates = [p if p.is_dir() else p.parent for p in paths]
    root = candidates[0]
    for candidate in candidates[1:]:
        while not candidate.is_relative_to(root):
            root = root.parent
    return root


def check_module(
    module: SourceModule, rules: Iterable[Rule], project: Project
) -> list[Finding]:
    """Every finding ``rules`` produce for one module, sorted stably."""
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(module, project))
    findings.sort(key=lambda f: (f.line, f.rule, f.detail))
    return findings


def run_analysis(
    project: Project,
    rules: Iterable[Rule],
    baseline: "Baseline | None" = None,
    *,
    cache: "FindingsCache | None" = None,
) -> AnalysisReport:
    """Run ``rules`` over ``project`` and partition the findings.

    ``cache`` serves findings for files whose content (and the shared
    environment fingerprint) is unchanged; every other file is checked
    and its findings stored back.
    """
    rules = list(rules)
    report = AnalysisReport(
        files_checked=len(project.modules),
        rules_run=tuple(rule.id for rule in rules),
    )
    seen_fingerprints: set[str] = set()
    for module in project.modules:
        findings = cache.lookup(module) if cache is not None else None
        if findings is not None:
            report.cache_hits += 1
        else:
            findings = check_module(module, rules, project)
            if cache is not None:
                cache.store(module, findings)
        for finding in findings:
            seen_fingerprints.add(finding.fingerprint())
            if finding.suppressed:
                report.suppressed.append(finding)
            elif baseline is not None and baseline.contains(finding):
                report.baselined.append(finding)
            else:
                report.new.append(finding)
    if baseline is not None:
        report.stale_baseline = sorted(
            fp for fp in baseline.fingerprints if fp not in seen_fingerprints
        )
    for bucket in (report.new, report.baselined, report.suppressed):
        bucket.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
