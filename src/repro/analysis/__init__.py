"""Project-invariant static analysis (``python -m repro.analysis``).

The serving paths of this repository (CSR snapshots, session caches,
worker pools) are only trustworthy because a set of cross-cutting
invariants holds everywhere:

* structural mutations invalidate derived caches, and every writer of
  ``graph.derived`` registers its key prefix with the invalidation
  hooks (the PR-2 stale-snapshot bug class);
* execution toggles flow through :class:`repro.session.config.ExecutionConfig`
  instead of re-growing the legacy kwargs sprawl, and each toggle that
  selects a serving arm is branched on and named by a test;
* observability hooks are strict no-ops when disabled — no ambient
  lookups or span allocation inside hot loops;
* engine-private buffers stay inside :mod:`repro.topk`;
* no mutable default arguments, no mutation of frozen dataclasses;
* the typed core (session/obs/index/delta/api) stays fully annotated.

This package turns those reviewer-memory rules into machine-enforced
checks: an AST rule registry (:mod:`repro.analysis.rules`), per-line
suppressions (``# repro: noqa[R3]``), a committed baseline for
grandfathered findings (:mod:`repro.analysis.baseline`), JSON and human
reporters, and a CLI (:mod:`repro.analysis.cli`).  Stdlib ``ast`` only —
no third-party dependencies.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.core import (
    AnalysisReport,
    Finding,
    Project,
    Rule,
    SourceModule,
    load_project,
    run_analysis,
)
from repro.analysis.rules import ALL_RULES, get_rule

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Baseline",
    "Finding",
    "Project",
    "Rule",
    "SourceModule",
    "get_rule",
    "load_project",
    "run_analysis",
]
