"""Smoke test of the benchmark: every workload, untraced and traced, on a
tiny catalog for one second each (about 15 s in all).

    python3 -m pytest perfbench

It lives outside `tests/`, so the tier-1 suite does not collect it.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_every_workload_runs_and_checks_out():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
