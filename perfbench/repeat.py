"""Check that the per-layer work counts repeat exactly at one seed.

Run from the repository root::

    python3 perfbench/repeat.py

Runs the traced benchmark twice per workload for :data:`ROUNDS` rounds
(churn cycles, bursts, solve rounds) at seed :data:`SEED`, each time in
a fresh process, and prints every work count that differs between the
two runs.  Exits 1 when any count differs or a run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve-churn", "fleet-tcp", "solve-batch")
SEED = 1
#: Enough bursts for fleet-tcp's first capacity update (every 50th).
ROUNDS = 60


def counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--trace", "1", "--rounds", str(ROUNDS)],
        capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        sys.exit(f"{workload}: run failed\n{out.stderr}")
    line = next(x for x in out.stdout.splitlines() if x.startswith("COUNTS "))
    return json.loads(line[len("COUNTS "):])


def main() -> int:
    differ = False
    for workload in WORKLOADS:
        first = counts(workload)
        second = counts(workload)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        for key in diff:
            print(f"{workload}: {key}: {first.get(key)} != {second.get(key)}")
        if not diff:
            print(f"{workload}: all {len(first)} work counts repeat: {json.dumps(first)}")
        differ = differ or bool(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
