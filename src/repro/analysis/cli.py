"""``python -m repro.analysis`` — run the project-invariant checker.

Exit codes: 0 clean (modulo baseline and suppressions), 1 when any new
finding (or an unjustified/stale baseline entry) exists, 2 on usage
errors.

Incremental use: findings are cached per file under
``.repro-analysis-cache/`` (disable with ``--no-cache``), so a run
re-checks only the files an edit touched.  ``--format sarif`` with
``--output`` emits a SARIF 2.1.0 log for code-scanning upload.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.core import load_project, run_analysis
from repro.analysis.incremental import CACHE_DIR_NAME, open_cache
from repro.analysis.report import (
    render_explain,
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)
from repro.analysis.rules import ALL_RULES

#: ``src/repro/analysis/cli.py`` -> repository root.
REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_BASELINE = REPO_ROOT / "analysis-baseline.json"
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant static analysis for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to check (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to cover current findings "
        "(preserves existing justifications; new entries get a "
        "placeholder you must fill in)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the per-file findings cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=f"findings-cache directory (default: <root>/{CACHE_DIR_NAME})",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print a rule's invariant, rationale and provenance, then exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also show baselined and suppressed findings in text output",
    )
    return parser


def _analysis_root(paths: list[Path]) -> Path:
    """The root repo-relative paths are anchored at.

    The real repo root when every target lives under it (the normal
    case).  A single directory target elsewhere — a throwaway tree in
    tests — anchors at itself, so path-suffix rule scoping and the cache
    both work against it.  Stray file targets keep the repo root (their
    rel paths fall back to absolute, which still suffix-matches the
    rules' scoping patterns).
    """
    if len(paths) == 1 and paths[0].is_dir() and not paths[0].is_relative_to(REPO_ROOT):
        return paths[0]
    return REPO_ROOT


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0
    if args.explain is not None:
        text = render_explain(args.explain)
        if text is None:
            known = ", ".join(rule.id for rule in ALL_RULES)
            print(f"unknown rule {args.explain!r}; known rules: {known}", file=sys.stderr)
            return 2
        print(text)
        return 0

    rules = list(ALL_RULES)
    if args.rules is not None:
        wanted = {part.strip().upper() for part in args.rules.split(",") if part.strip()}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    paths = [path.resolve() for path in args.paths] or [DEFAULT_TARGET]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None and DEFAULT_BASELINE.exists():
        baseline_path = DEFAULT_BASELINE
    baseline = (
        Baseline() if args.no_baseline else Baseline.load_or_empty(baseline_path)
    )

    started = time.perf_counter()
    root = _analysis_root(paths)
    project = load_project(paths, root=root)

    cache = None
    # The cache defaults on only when every target anchors under the
    # analysis root — stray-file runs (fixtures, ad-hoc checks) must
    # not clobber the root's cache with their own environment.
    anchored = all(path.is_relative_to(root) for path in paths)
    if not args.no_cache and (anchored or args.cache_dir is not None):
        cache_dir = args.cache_dir or root / CACHE_DIR_NAME
        cache = open_cache(project, rules, cache_dir)

    report = run_analysis(project, rules, baseline, cache=cache)
    if cache is not None:
        cache.prune(keep={module.rel_path for module in project.modules})
        cache.save()
    elapsed = time.perf_counter() - started

    if args.write_baseline:
        target = baseline_path if baseline_path is not None else DEFAULT_BASELINE
        rebuilt = baseline.rebuilt_from([*report.new, *report.baselined])
        rebuilt.save(target)
        print(
            f"baseline written to {target} "
            f"({len(rebuilt.entries)} entr{'y' if len(rebuilt.entries) == 1 else 'ies'}; "
            f"{len(rebuilt.unjustified())} awaiting justification)"
        )
        return 0

    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = render_text(report, verbose=args.verbose)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    print(
        f"checked {report.files_checked} file(s) "
        f"({report.cache_hits} from cache) in {elapsed:.2f}s",
        file=sys.stderr,
    )

    unjustified = baseline.unjustified()
    if unjustified:
        print(
            "baseline entries without justification (fill in the "
            "'justification' field):",
            file=sys.stderr,
        )
        for fingerprint in unjustified:
            print(f"  {fingerprint}", file=sys.stderr)
        return 1
    if report.stale_baseline:
        return 1
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
