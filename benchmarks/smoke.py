"""Smoke check for the benchmark: every workload, traced and untraced, on a tiny model.

    python3 benchmarks/smoke.py

Each run is a child process (so no workload inherits another's peak memory).
The check passes when every run exits 0, reports correct outputs with no
failed operation, and prints exactly the metrics BENCHMARK.json declares for
its trace setting, each with its declared unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream-real", "stream-fixed", "stream-narrow", "verify-oracle")


def check(workload: str, trace: int, declared: dict) -> list:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics or units differ: {sorted(set(got.items()) ^ set(declared.items()))}")
    if not all(isinstance(m["value"], float) for m in result["metrics"].values()):
        problems.append(f"{where}: a metric value is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from the smoke list")
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check(workload, trace, declared[trace])
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
