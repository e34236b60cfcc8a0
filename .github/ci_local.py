"""Run the CI workflow's steps locally, in CI's order, and report each one.

    python .github/ci_local.py

Reads ``.github/workflows/ci.yml`` and copies the working tree to a
temporary directory: the files ``git ls-files`` lists, tracked or
untracked, without ``.git`` and without ignored files such as the
analyzer's findings cache, as a fresh checkout would have them.  What
the steps write (the SARIF file, the analyzer and mypy caches) stays
out of the checkout.

It runs every job's ``run:`` steps in file order under bash, with the
workflow's, the job's and the step's ``env``, and goes on after a
failing step.  ``uses:`` steps are not run, and ``pip install`` steps
are reported as skipped: the local interpreter must already have what
they install.  A job's ``matrix`` is not expanded; its steps run once,
on the local interpreter.

Each step's output streams through as it runs.  The closing report
gives each step's job, exit code, seconds and name, and the script
exits 1 if any step it ran failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
BASH = ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c"]


def step_env(*scopes: dict[str, Any]) -> dict[str, str]:
    """``os.environ`` overlaid with each scope's ``env``, outermost first."""
    env = dict(os.environ)
    for scope in scopes:
        for key, value in (scope.get("env") or {}).items():
            env[key] = str(value)
    return env


def copy_tree(dest: Path) -> None:
    """Copy the files git lists (tracked or untracked, not ignored)."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    rows: list[tuple[str, str, str, str]] = []
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ci-local-") as tmp:
        tree = Path(tmp) / ROOT.name
        copy_tree(tree)
        for job_name, job in workflow["jobs"].items():
            for step in job.get("steps", []):
                script = step.get("run")
                if script is None:
                    continue
                name = step.get("name") or script.strip().splitlines()[0]
                if "pip install" in script:
                    rows.append((job_name, "skipped", "-", name))
                    continue
                print(f"\n=== {job_name}: {name}", flush=True)
                started = time.perf_counter()
                code = subprocess.run(
                    [*BASH, script], cwd=tree, env=step_env(workflow, job, step)
                ).returncode
                seconds = time.perf_counter() - started
                failed += code != 0
                rows.append((job_name, str(code), f"{seconds:.1f}", name))

    print(f"\n{'job':<10} {'exit':>7} {'seconds':>8}  step")
    for job_name, status, seconds, name in rows:
        print(f"{job_name:<10} {status:>7} {seconds:>8}  {name}")
    ran = sum(status != "skipped" for _, status, _, _ in rows)
    print(f"\n{ran} steps run, {failed} failed, {len(rows) - ran} skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
