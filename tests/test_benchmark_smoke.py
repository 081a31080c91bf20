"""The benchmark harness still runs against the package, and the stream
path still gives the bits the benchmark recorded.

``benchmarks/`` drives the package through its public calls and the weight
file format; this runs its smoke check (every workload, traced and untraced,
on a tiny model) so a change that breaks that use fails here.  It also
rebuilds the streams' inputs and holds ``generate`` to the bin digests in
``benchmarks/digests.json``, which the benchmark otherwise checks only when
it runs.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qwavenet import ModelConfig, generate, parse_mode, random_weights

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


@pytest.mark.parametrize(
    "key", ["stream-real:real", "stream-fixed:fixed<27,8>", "stream-narrow:fixed<16,3>"]
)
def test_stream_bins_match_recorded_digests(key):
    # the streams' inputs: bundle weights, 32 warm-up samples per seed, 64 emitted
    recorded = json.loads((ROOT / "benchmarks" / "digests.json").read_text())[key]
    cfg = ModelConfig()
    ws = random_weights(cfg, seed=2020, scale=0.25)
    mode = parse_mode(key.split(":")[1])
    for seed in (0, 1):
        warm = np.random.default_rng([seed, 0]).uniform(-1.0, 1.0, 32)
        bins = generate(cfg, ws, warm, n=64, mode=mode).bins
        assert hashlib.sha256(bins.astype("<i8").tobytes()).hexdigest() == recorded[str(seed)]
