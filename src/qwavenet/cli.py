"""Command-line front end.

Subcommands:

* ``generate`` — run the autoregressive generator on one session and write a
  WAV file, with an optional JSON run report read from that session (the
  engine parallelism each layer ran at, its matvec and MAC counts, and in
  fixed point each layer's static headroom, the layers whose matvec is
  the static shortcut, and the rung each layer's and the readout's
  prepared matvec runs: ``shortcut``, ``lanes`` or ``ladder``) beside
  timings, throughput, per-layer and per-step times from a timing
  observer, config/weight digests, Python/numpy versions and CPU count.
  An output
  path that names a directory, or lies in a missing one, and any two of
  ``--config``, ``--weights``, ``--out`` and ``--report`` that name one file,
  are refused before the session is built;
* ``verify``   — self-check on a reduced version of the given config: the
  engine against a plain matvec, and the generator, with its rings of
  delayed-tap products, against the naive full-history reference, bit for
  bit (bins and logits) in real mode and in the default fixed-point format;
* ``compare``  — MSE and log-spectral distance between two WAV files;
* ``explore``  — sweep engine parallelism parameters over the model's layers
  and emit the cost model's estimates as CSV; an ``--out`` that names the
  ``--config`` is refused.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from .engine import ParallelismParams, estimate_cycles, matvec
from .inference import _generate, _Session, generate, generate_naive, static_headroom
from .metrics import SpectrogramParams, log_spectral_distance, mse
from .model import ModelConfig, config_digest, load_config, validate_config
from .numerics import FixedMode, RealMode, parse_mode
from .weights import load_weights, random_weights
from .wavio import _check_sample_rate, read_wav, write_wav


@dataclass(frozen=True)
class RunReport:
    samples_generated: int
    wall_time: float
    throughput_hz: float
    number_mode: str
    layer_params: list
    config_digest: str
    weights_sha256: str
    static_headroom: list | None = None  # per layer, fixed point only
    static_shortcut: list | None = None  # layer indices, fixed point only
    prepared_rungs: list | None = None  # per layer, then the readout; fixed point only
    matvec_calls: int = 0
    mac_ops: int = 0
    layer_us_median: list | None = None
    step_us_p50: float | None = None
    step_us_p99: float | None = None
    python: str = field(default_factory=platform.python_version)
    numpy: str = np.__version__
    cpu_count: int | None = field(default_factory=os.cpu_count)


class _StepTimer:
    """A timing observer for ``_Session.forward``, which reads the clock
    itself: layer i's time runs from the previous callback, or from the
    step's start, to its own, and a step is one network pass, readout
    included.  ``forward`` is the step loop's backend."""

    def __init__(self, layers: int):
        self.layer_ns = [[] for _ in range(layers)]
        self.step_ns = []

    def forward(self, session, xs):
        self.last = start = time.perf_counter_ns()
        logits = session.forward(xs, observe=self)
        self.step_ns.append(time.perf_counter_ns() - start)
        return logits

    def __call__(self, t, i, out):
        now = time.perf_counter_ns()
        self.layer_ns[i].append(now - self.last)
        self.last = now


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    return values


def _refuse_shared_paths(**paths) -> None:
    """Refuse two path flags that resolve to one file, so that no output
    overwrites an input or another output.  Flags left unset are skipped."""
    seen = {}
    for flag, path in paths.items():
        if path is None:
            continue
        key = Path(path).resolve()
        if key in seen:
            raise ValueError(f"{path}: --{flag} names the same file as --{seen[key]}")
        seen[key] = flag


def _cmd_generate(args) -> int:
    _refuse_shared_paths(
        config=args.config, weights=args.weights, out=args.out, report=args.report
    )
    cfg = load_config(args.config)
    _check_sample_rate(cfg.sample_rate)  # before the run, not after it
    for path in (args.out, args.report):
        if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ValueError(f"{path}: not a file path in an existing directory")
    ws = load_weights(args.weights, cfg)
    mode = parse_mode(args.mode)
    n = int(round(args.seconds * cfg.sample_rate))
    if n < 1:
        raise ValueError(f"--seconds {args.seconds} yields no samples at {cfg.sample_rate} Hz")

    t0 = time.perf_counter()
    session = _Session(cfg, ws, mode)
    timer = _StepTimer(len(session.specs)) if args.report else None
    wf = _generate(session, timer.forward if timer else _Session.forward, None, n)
    wall = time.perf_counter() - t0
    write_wav(args.out, wf.samples, wf.sample_rate)

    if args.report:
        # step 0 is the zero warm-up sample, which also lowers the taps
        headroom = static_headroom(session) if isinstance(mode, FixedMode) else None
        step_us = np.array(timer.step_ns[1:]) / 1e3
        report = RunReport(
            samples_generated=n,
            wall_time=wall,
            throughput_hz=n / wall,
            number_mode=str(mode),
            layer_params=[[p.num_parallel_out, p.num_parallel_in] for p in session.params],
            config_digest=config_digest(cfg),
            weights_sha256=_sha256_file(args.weights),
            static_headroom=headroom,
            static_shortcut=None if headroom is None else [i for i, h in enumerate(headroom) if h <= 1],
            prepared_rungs=None
            if headroom is None
            else [mode.prepare(w)[0] for w in (*session.taps, session.fc_wt)],
            matvec_calls=session.stats.matvec_calls,
            mac_ops=session.stats.mac_ops,
            layer_us_median=[float(np.median(ns[1:])) / 1e3 for ns in timer.layer_ns],
            step_us_p50=float(np.percentile(step_us, 50)),
            step_us_p99=float(np.percentile(step_us, 99)),
        )
        with open(args.report, "w") as fh:
            json.dump(asdict(report), fh, indent=2)
            fh.write("\n")
    print(
        f"wrote {args.out}: {n} samples at {cfg.sample_rate} Hz "
        f"in {wall:.2f}s ({n / wall:.1f} samples/s, mode {mode})"
    )
    return 0


def _reduced_config(cfg: ModelConfig) -> ModelConfig:
    """Shrink a config so the quadratic-cost reference generator stays fast."""
    return replace(
        cfg,
        num_blocks=min(cfg.num_blocks, 2),
        layers_per_block=min(cfg.layers_per_block, 4),
        channels=min(cfg.channels, 8),
        quant_levels=min(cfg.quant_levels, 64),
    )


def _check_matvec(rng) -> str:
    combos = [
        ParallelismParams(po, pi) for po, pi in product((1, 2, 4, 8), repeat=2)
    ]
    W_int = rng.integers(-9, 10, size=(16, 16)).astype(np.float64)
    x_int = rng.integers(-9, 10, size=16).astype(np.float64)
    for p in combos:
        if not np.array_equal(matvec(W_int, x_int, p=p), W_int @ x_int):
            return f"integer matvec mismatch at {p}"
    W = rng.uniform(-1, 1, size=(13, 7))
    x = rng.uniform(-1, 1, size=7)
    ref = W @ x
    for p in combos:
        got = matvec(W, x, p=p)
        if np.max(np.abs(got - ref)) > 1e-6 * max(1.0, np.max(np.abs(ref))):
            return f"real matvec deviation at {p}"
    return ""


def _check_generator_parity(cfg: ModelConfig, seed: int, mode) -> str:
    """Queue generator vs naive reference: bins and logits must be bit-equal."""
    ws = random_weights(cfg, seed=seed)
    sink_fast, sink_naive = [], []
    wf_fast = generate(cfg, ws, n=200, mode=mode, logit_sink=sink_fast)
    wf_naive = generate_naive(cfg, ws, n=200, mode=mode, logit_sink=sink_naive)
    if not np.array_equal(wf_fast.bins, wf_naive.bins):
        return "bin sequences differ"
    if not np.array_equal(sink_fast, sink_naive):
        return "logits differ"
    return ""


def _cmd_verify(args) -> int:
    cfg = _reduced_config(load_config(args.config))
    rng = np.random.default_rng(args.seed)
    checks = [("matvec vs plain matrix product", partial(_check_matvec, rng))] + [
        (
            f"queue generator vs naive reference, {mode}",
            partial(_check_generator_parity, cfg, args.seed, mode),
        )
        for mode in (RealMode(), FixedMode())
    ]
    failed = False
    for name, check in checks:
        detail = check()
        if detail:
            failed = True
            print(f"FAIL {name}: {detail}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    a, rate_a = read_wav(args.a)
    b, rate_b = read_wav(args.b)
    if rate_a != rate_b:
        raise ValueError(f"sample rates differ: {rate_a} vs {rate_b}")
    params = SpectrogramParams(window_size=args.window, hop=args.hop, epsilon=args.epsilon)
    print(f"n_samples={a.size} mse={mse(a, b):.6g} lsd={log_spectral_distance(a, b, params):.6g}")
    return 0


def _cmd_explore(args) -> int:
    _refuse_shared_paths(config=args.config, out=args.out)
    cfg = load_config(args.config)
    specs = validate_config(cfg)
    pouts = _parse_int_list(args.pout_list)
    pins = _parse_int_list(args.pin_list)

    rows = [
        {
            "block": spec.block_index,
            "layer": spec.layer_index,
            "rows": spec.out_channels,
            "cols": spec.in_channels,
            "p_out": po,
            "p_in": pi,
            **asdict(
                estimate_cycles(spec.out_channels, spec.in_channels, ParallelismParams(po, pi))
            ),
        }
        for spec in specs
        for po, pi in product(pouts, pins)
    ]

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwavenet",
        description="Queue-cached autoregressive WaveNet inference tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate audio and write a WAV file")
    g.add_argument("--config", required=True, help="model config JSON")
    g.add_argument("--weights", required=True, help="weight file")
    g.add_argument("--seconds", type=float, required=True, help="audio length to generate")
    g.add_argument("--mode", default="real", help="numeric mode: real, fixed, or fixed<T,I>")
    g.add_argument("--out", required=True, help="output WAV path")
    g.add_argument("--report", help="optional JSON run report path")
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("verify", help="run self-checks on a reduced config")
    v.add_argument("--config", required=True, help="model config JSON")
    v.add_argument("--seed", type=int, default=0, help="random seed for the checks")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("compare", help="MSE / LSD between two WAV files")
    c.add_argument("--a", required=True, help="first WAV file")
    c.add_argument("--b", required=True, help="second WAV file")
    c.add_argument("--window", type=int, default=512, help="STFT window size")
    c.add_argument("--hop", type=int, default=128, help="STFT hop size")
    c.add_argument("--epsilon", type=float, default=1e-10, help="log floor")
    c.set_defaults(func=_cmd_compare)

    e = sub.add_parser("explore", help="cost-model sweep over parallelism parameters")
    e.add_argument("--config", required=True, help="model config JSON")
    e.add_argument("--pout-list", required=True, help="comma-separated num_parallel_out values")
    e.add_argument("--pin-list", required=True, help="comma-separated num_parallel_in values")
    e.add_argument("--out", help="CSV output path (default stdout)")
    e.set_defaults(func=_cmd_explore)

    return parser


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report, don't traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
