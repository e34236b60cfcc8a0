"""Self-test helper: a serving process whose worker pool never answers.

It sets up the plan's pool workload (spawning the workers), reports the
warm batch as progress, then waits on a pool task that sleeps for an
hour.  Only the supervising deadline can end it.

Usage: ``python3 perfbench/tests/hang_pool.py RUN_DIR``
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main() -> None:
    run_dir = Path(sys.argv[1])
    sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]
    import serve

    runner = serve.Runner(run_dir)
    runner.surface.setup()
    (run_dir / "progress").write_text(str(len(runner.plan["warm"])))
    runner.surface.session._pool._executor.submit(time.sleep, 3600).result()


if __name__ == "__main__":
    main()
