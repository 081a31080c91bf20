"""The benchmark harness still runs against the package.

``benchmarks/`` drives the package through its public calls and the weight
file format; this runs its smoke check (every workload, traced and untraced,
on a tiny model) so a change that breaks that use fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "benchmarks/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
