"""Record the bin digests the benchmark checks its streams against.

    python3 benchmarks/record_digests.py 0 64    # seeds 0..63, as run.py expects

For every workload, mode and seed in the range, runs ``generate`` on the
workload's inputs and stores the SHA-256 of its bins in
``benchmarks/digests.json`` (existing entries for other seeds are kept).
Record from a commit whose outputs are known to be right: later commits are
held to these bits.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    table = json.loads(run.DIGESTS.read_text())
    for w in run.WORKLOADS.values():
        cfg = w.config(tiny=False)
        for seed in range(lo, hi):
            ws = w.weights(cfg, seed)
            warm = run.warmup_samples(seed)
            for m in w.modes:
                bins = run.generate(cfg, ws, warm, n=w.n, mode=run.parse_mode(m)).bins
                table.setdefault(run.digest_key(w.name, m), {})[str(seed)] = run.digest(bins)
            print(w.name, seed, flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
