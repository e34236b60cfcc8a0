"""Project-invariant static analysis (``python -m repro.analysis``).

The serving paths of this repository (CSR snapshots, session caches,
worker pools) are only trustworthy because a set of cross-cutting
invariants holds everywhere:

* structural mutations clear the derived caches before any listener
  hears of them (the stale-snapshot bug class);
* observability hooks are strict no-ops when disabled — no ambient
  lookups or span allocation inside hot loops;
* no mutable default arguments;
* the typed core (session/obs/index/delta/api) stays fully annotated;
* state shipped to worker processes pickles cleanly, shared registries
  are mutated under their lock everywhere, and snapshot-bearing cache
  keys fold in a token.

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
