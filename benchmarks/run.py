"""qwavenet benchmark: streaming throughput per numeric mode, and the verify oracle.

    python3 benchmarks/run.py --workload stream-real --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each generator call starts when the
previous one returns.  The workloads, the reason for each and the map from
layer metric to end-to-end metric are in ``benchmarks/DESIGN.md``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced calls with calls of the benchmark's own traced loop
(``tracing.py``) and reports the per-layer metrics.  Every generated bin
sequence is checked: against the digest recorded in ``digests.json`` for the
workload and seed when there is one, otherwise against the benchmark's own
loop; ``verify-oracle`` also needs the naive and queue bins to be equal.

Report lines and a provenance line come first; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  ``--tiny`` runs a
small model instead (for ``smoke.py``).  Run from the repository root; the
package is imported from ``src/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so the W @ x floor starts no pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "qwavenet" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: qwavenet sources not found under {SRC}")
sys.path.insert(0, str(SRC))

# glibc adapts its mmap and trim thresholds to the sizes freed so far, so
# whether a call's fresh queues end up resident depends on allocation history.
# Fixing both at the values they adapt to (the 64-bit maximum, and twice it)
# keeps peak_rss_mb repeatable without changing the steady-state allocator.
MALLOPT = {-3: 32 * 1024 * 1024, -1: 64 * 1024 * 1024}  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
try:
    for _param, _value in MALLOPT.items():
        ctypes.CDLL(None).mallopt(_param, _value)
except (OSError, AttributeError):
    MALLOPT = {}

import numpy as np  # noqa: E402

import qwavenet  # noqa: E402
from qwavenet import (  # noqa: E402
    DEFAULT_PARALLELISM,
    ModelConfig,
    OpStats,
    config_digest,
    default_layer_params,
    estimate_cycles,
    estimate_queue_memory,
    generate,
    generate_naive,
    load_config,
    load_weights,
    matvec,
    matvec_cols,
    mul_raw,
    naive_dilated_conv_sequence,
    parse_mode,
    quantize_real,
    random_weights,
    save_config,
    save_weights,
    validate_config,
)
from qwavenet.numerics import FixedMode  # noqa: E402

import tracing  # noqa: E402

WARMUP_SAMPLES = 32
BUNDLE_SEED, BUNDLE_SCALE = 2020, 0.25
MAX_LAYERS = 28  # conv-step metrics L00..L27 cover the default model
HIDDEN = 128  # the 128x128 metrics need this channel count
ORACLE_CONFIG = ModelConfig(num_blocks=2, layers_per_block=6, channels=32)
TINY_CONFIG = ModelConfig(num_blocks=1, layers_per_block=3, channels=8, quant_levels=16)
DIGESTS = HERE / "digests.json"
RECORDED_SEEDS = 64  # digests.json covers seeds 0..63
SELF_TIME_TOLERANCE = 0.10  # medians of parts need not add up to the median of their sum
OUT = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple
    n: int  # samples emitted per generator call
    naive: bool = False  # each operation is a queue-vs-naive parity check

    def config(self, tiny: bool) -> ModelConfig:
        if tiny:
            return TINY_CONFIG
        return ORACLE_CONFIG if self.naive else ModelConfig()

    def weights(self, cfg, seed: int):
        """Bundle weights for the streams; the oracle draws its weights from the seed."""
        return random_weights(cfg, seed=seed if self.naive else BUNDLE_SEED, scale=BUNDLE_SCALE)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-real", ("real",), 64),
        Workload("stream-fixed", ("fixed<27,8>",), 64),
        Workload("stream-narrow", ("fixed<16,3>",), 64),
        Workload("verify-oracle", ("real", "fixed<27,8>"), 64, naive=True),
    )
}


def warmup_samples(seed: int):
    return np.random.default_rng([seed, 0]).uniform(-1.0, 1.0, WARMUP_SAMPLES)


def digest(bins) -> str:
    return hashlib.sha256(np.asarray(bins, dtype="<i8").tobytes()).hexdigest()


def digest_key(workload: str, mode) -> str:
    return f"{workload}:{mode}"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_us(fn, reps: int) -> float:
    """Median µs of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times) * 1e6


class SaturationCensus:
    """Counts matvecs whose Σ|products| stays inside the format range, using ``mul_raw``."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.total = 0
        self.unsaturated = 0

    def __call__(self, W, x):
        products = mul_raw(W, x[None, :], self.fmt)
        self.total += 1
        self.unsaturated += int(np.abs(products).sum(axis=1).max() <= self.fmt.raw_max)


# ---------------------------------------------------------------------------
# Phases of a run.


class Setup:
    """The set-up a user pays before the first sample, one repeat per call:
    load_config + load_weights from file + generate(n=1) in each mode.

    Repeats are spread over the run (one before each round), so their median
    does not hang on the machine's state during a single moment.
    """

    def __init__(self, cfg_path, w_path, warm, modes):
        self.cfg_path, self.w_path, self.warm, self.modes = cfg_path, w_path, warm, modes
        self.totals, self.loads, self.firsts = [], [], set()

    def __call__(self):
        t0 = perf_counter()
        cfg = load_config(self.cfg_path)
        t1 = perf_counter()
        ws = load_weights(self.w_path, cfg)
        t2 = perf_counter()
        first = tuple(int(generate(cfg, ws, self.warm, n=1, mode=m).bins[0]) for m in self.modes)
        self.totals.append(perf_counter() - t0)
        self.loads.append(t2 - t1)
        self.firsts.add(first)
        return cfg, ws


def generator_calls(w, cfg, ws, warm, tracer):
    """The generator calls of one operation, each taking a mode and returning bins."""
    if tracer is None:
        calls = [lambda mode: generate(cfg, ws, warm, n=w.n, mode=mode).bins]
        if w.naive:
            calls.append(lambda mode: generate_naive(cfg, ws, warm, n=w.n, mode=mode).bins)
    else:
        calls = [lambda mode: tracing.queue_generate(cfg, ws, warm, w.n, mode, tracer)[0]]
        if w.naive:
            calls.append(lambda mode: tracing.naive_generate(cfg, ws, warm, w.n, mode, tracer)[0])
    return calls


def run_round(calls, modes, expected):
    """One operation per mode: a stream, or a queue-vs-naive parity check.

    Returns ``(times, failed)``: the seconds of each generator call of the
    operations that passed, keyed by (mode, call), and the failure count.  An
    operation that raises, or whose bins differ from the expected digest,
    fails and contributes no time.
    """
    times, failed = {}, 0
    for mode in modes:
        op = {}
        try:
            for i, call in enumerate(calls):
                t0 = perf_counter()
                bins = call(mode)
                op[(str(mode), i)] = (perf_counter() - t0, digest(bins))
        except Exception:  # the run goes on; the failure is counted and shown
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        if all(d == expected[str(mode)] for _, d in op.values()):
            times.update({key: t for key, (t, _) in op.items()})
        else:
            print(f"check: {mode} bins differ from the expected digest", file=sys.stderr)
            failed += 1
    return times, failed


def measure_window(seconds, rounds, modes, expected, setup):
    """Run rounds, cycling through the ``rounds`` call lists, for ``seconds``.

    Each round is preceded by one set-up repeat.
    Returns, per call list, the call times keyed by (mode, call), and the
    attempted and failed operation counts.
    """
    times = [{} for _ in rounds]
    attempted = failed = 0
    start = perf_counter()
    i = 0
    while True:
        k = i % len(rounds)
        setup()
        got, bad = run_round(rounds[k], modes, expected)
        for key, t in got.items():
            times[k].setdefault(key, []).append(t)
        attempted += len(modes)
        failed += bad
        i += 1
        if perf_counter() - start >= seconds and i % len(rounds) == 0:
            return times, attempted, failed


def throughput(times, samples_per_call: int, calls_per_round: int) -> float:
    """Samples per second of one round made of the median time of each call.

    Taking the median per call keeps a slow moment in one call from spoiling
    the whole round's sample.  0 if some call never passed.
    """
    if len(times) < calls_per_round:
        return 0.0
    return samples_per_call * calls_per_round / sum(median(t) for t in times.values())


def layer_metrics(w, cfg, ws, warm, modes, tracer, ref, census, setup_load_s, untraced, traced):
    """Per-layer metrics from the traced run and from operands it left behind.

    0 means the workload never runs that operation: conv steps past the
    model's layers, naive sequences on the streams, 128x128 operations on the
    oracle's 32-channel model, fixed-point helpers in real mode, wide column
    batches outside the oracle.
    """
    specs = validate_config(cfg)
    params = default_layer_params(specs)
    # Step-level numbers come from the last mode: the only one on a stream,
    # fixed<27,8> on the oracle (one distribution per metric).
    mode = modes[-1]
    fixed = isinstance(mode, FixedMode)
    kernels, fc_wt, fc_b = tracing.lower(cfg, ws, mode)
    layers, hidden, history = ref[str(mode)]
    spans = tracer.spans
    m = {}

    step_us, parts = tracing.step_breakdown(spans, f"generate/{mode}")
    part = {name: median(v) for name, v in parts.items()}  # empty if every traced round failed
    m["inference.step_us.p50"] = tracing.percentile(step_us, 50)
    m["inference.step_us.p99"] = tracing.percentile(step_us, 99)
    m["inference.fc_us"] = part.get("inference.fc", 0.0)
    m["inference.argmax_us"] = part.get("inference.argmax", 0.0)
    m["inference.dequantize_us"] = part.get("inference.dequantize", 0.0)
    m["inference.glue_us"] = part.get("inference.glue", 0.0)
    for i in range(MAX_LAYERS):
        m[f"queues.conv_step_us.L{i:02d}"] = part.get(tracing.conv_span(i), 0.0)

    naive_steps = sum(1 for s in spans if s[0] == tracing.NAIVE_STEP)
    m["queues.naive_seq_us_per_sample"] = (
        tracing.total_us(spans, tracing.NAIVE_SEQ) / naive_steps if naive_steps else 0.0
    )
    queue_bytes = sum(layer.queue.storage.nbytes for layer in layers)
    m["queues.queue_mb"] = queue_bytes / 1e6

    # Engine matvecs on operands the run left in the queues: the last input
    # pushed to each layer (current tap) and its front (delayed tap).
    def taps(i):
        q = layers[i].queue
        return q.front(), q.storage[(q.head - 1) % q.length].copy()

    _, c0 = taps(0)
    m["engine.matvec_us.in1"] = time_us(lambda: matvec(kernels[0][1], c0, p=params[0], mode=mode), 20)
    hidden_times, x_last = [], None
    if cfg.channels == HIDDEN and len(specs) > 1:
        for i in range(1, len(specs)):
            d, c = taps(i)
            for k, x in ((kernels[i][0], d), (kernels[i][1], c)):
                hidden_times.append(time_us(lambda: matvec(k, x, p=params[i], mode=mode), 5))
            x_last = c
    m["engine.matvec_us.128x128"] = median(hidden_times) if hidden_times else 0.0
    m["engine.matvec_us.fc"] = time_us(
        lambda: matvec(fc_wt, hidden, bias=fc_b, p=DEFAULT_PARALLELISM, mode=mode), 20
    )
    m["engine.cols_ns_per_col"] = cols_ns_per_col(w, cfg, ws, modes, ref) if w.naive else 0.0

    stats = OpStats()
    generate(cfg, ws, warm, n=1, mode=mode, stats=stats)
    passes = WARMUP_SAMPLES + 1
    m["engine.matvecs_per_sample"] = stats.matvec_calls / passes
    m["engine.macs_per_sample"] = stats.mac_ops / passes
    cycles = layer_cycles(cfg)
    m["engine.cycles_per_sample"] = float(sum(cycles.values()))
    m["engine.host_ns_per_cycle"] = m["inference.step_us.p50"] * 1e3 / m["engine.cycles_per_sample"]
    if x_last is not None:
        W_real = np.asarray(ws.kernels[-1][1], dtype=np.float64)
        x_real = mode.to_real(x_last)
        m["engine.blas_floor_us"] = time_us(lambda: W_real @ x_real, 200)
    else:
        m["engine.blas_floor_us"] = 0.0

    a, b = taps(len(specs) - 1)
    m["numerics.tanh_us"] = time_us(lambda: mode.tanh(a), 200)
    m["numerics.add_us"] = time_us(lambda: mode.add(a, b), 200)
    m["numerics.lower_ms"] = time_us(lambda: tracing.lower(cfg, ws, mode), 3) / 1e3
    m["numerics.unsaturated_share"] = census.unsaturated / census.total if census else 1.0

    if fixed and x_last is not None:
        W_raw = kernels[-1][1]
        m["fixedpoint.mul_raw_us"] = time_us(lambda: mul_raw(W_raw, x_last[None, :], mode.fmt), 50)
    else:
        m["fixedpoint.mul_raw_us"] = 0.0
    real_vec = mode.to_real(a)
    m["fixedpoint.quantize_us"] = (
        time_us(lambda: quantize_real(real_vec, mode.fmt), 200) if fixed else 0.0
    )
    m["weights.load_ms"] = setup_load_s * 1e3
    m["trace.overhead_share"] = 1.0 - traced / untraced if untraced else 0.0

    # Last, as it pushes into the queues the operands above were read from.
    ring = []
    for layer in layers:
        q = layer.queue
        v = q.storage[0].copy()
        ring.append(time_us(lambda: (q.front(), q.push(v)), 50))
    m["queues.ring_us"] = median(ring)
    return m, cycles


def cols_ns_per_col(w, cfg, ws, modes, ref):
    """matvec_cols on a hidden kernel over the oracle's final history, per column.

    The columns are layer 0's outputs over the whole input history, as the
    naive path computes them; the mean over the oracle's modes is reported.
    """
    specs = validate_config(cfg)
    params = default_layer_params(specs)
    per_mode = []
    for mode in modes:
        kernels, _, _ = tracing.lower(cfg, ws, mode)
        history = ref[str(mode)][2]
        act = mode.tanh(
            naive_dilated_conv_sequence(history, *kernels[0], specs[0].dilation, p=params[0], mode=mode)
        )
        X = np.ascontiguousarray(act.T)
        per_mode.append(time_us(lambda: matvec_cols(kernels[1][1], X, p=params[1], mode=mode), 5) * 1e3 / X.shape[1])
    return sum(per_mode) / len(per_mode)


def layer_cycles(cfg) -> dict:
    """``estimate_cycles`` of each layer's two matvecs and of the FC layer."""
    specs = validate_config(cfg)
    params = default_layer_params(specs)
    out = {
        tracing.conv_span(i): 2 * estimate_cycles(s.out_channels, s.in_channels, p).estimated_cycles
        for i, (s, p) in enumerate(zip(specs, params))
    }
    out["inference.fc"] = estimate_cycles(cfg.quant_levels, cfg.channels, DEFAULT_PARALLELISM).estimated_cycles
    return out


# ---------------------------------------------------------------------------


def run(args) -> int:
    """Write the workload's model files, then measure with them in place."""
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cfg_path, w_path = Path(tmp) / "model.json", Path(tmp) / "model.fwv"
        cfg = w.config(args.tiny)
        save_config(cfg, cfg_path)
        save_weights(w_path, w.weights(cfg, args.seed), cfg)
        setup = Setup(cfg_path, w_path, warmup_samples(args.seed), [parse_mode(m) for m in w.modes])
        return measure(args, w, setup, sha256_file(w_path))


def measure(args, w, setup, weights_sha) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"] for d in spec["per_layer" if args.trace else "end_to_end"]}
    recorded = {} if args.tiny else json.loads(DIGESTS.read_text())
    modes, warm = setup.modes, setup.warm
    cfg, ws = setup()

    # Reference bins from the benchmark's own loop; the recorded digest wins.
    problems = []
    expected, ref, census, first_bins = {}, {}, None, []
    for mode in modes:
        counter = SaturationCensus(mode.fmt) if args.trace and isinstance(mode, FixedMode) else None
        census = counter or census
        bins, layers, hidden = tracing.queue_generate(cfg, ws, warm, w.n, mode, tracing.NullTracer(), counter)
        want = recorded.get(digest_key(w.name, mode), {}).get(str(args.seed))
        expected[str(mode)] = want or digest(bins)
        if want and digest(bins) != want:
            problems.append(f"{mode}: the benchmark's loop differs from the recorded digest")
        history = None
        if args.trace and w.naive:  # the oracle's final history, for engine.cols_ns_per_col
            naive_bins, history = tracing.naive_generate(cfg, ws, warm, w.n, mode, tracing.NullTracer())
            if digest(naive_bins) != expected[str(mode)]:
                problems.append(f"{mode}: the benchmark's naive loop differs from its queue loop")
        ref[str(mode)] = (layers, hidden, history)
        first_bins.append(int(bins[0]))
    problems += check_canary(args, w, cfg, modes, recorded)

    tracer = tracing.Tracer() if args.trace else None
    rounds = [generator_calls(w, cfg, ws, warm, None)]
    if args.trace:
        rounds.append(generator_calls(w, cfg, ws, warm, tracer))
    times, attempted, failed = measure_window(args.seconds, rounds, modes, expected, setup)
    if setup.firsts != {tuple(first_bins)}:
        problems.append("generate(n=1) differs from the first bin of the stream")
    per_round = len(rounds[0]) * len(modes)
    untraced = throughput(times[0], w.n, per_round)
    passed_rounds = len(next(iter(times[0].values()), []))
    print(f"report: {w.name} seed={args.seed} modes={','.join(w.modes)} n={w.n} "
          f"untraced rounds passed={passed_rounds} attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.4f}")

    if args.trace:
        traced = throughput(times[1], w.n, per_round)
        metrics, cycles = layer_metrics(
            w, cfg, ws, warm, modes, tracer, ref, census, median(setup.loads), untraced, traced
        )
        problems += trace_checks(cfg, metrics, np.dtype(modes[-1].dtype).itemsize)
        print_layer_table(cfg, metrics, cycles)
        tracer.write(OUT / f"spans-{w.name}.jsonl")
    else:
        metrics = {
            "samples_per_s": untraced,
            "setup_s": median(setup.totals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"check failed: {p}")

    provenance = {
        "git_commit": git_commit(),
        "workload": w.name,
        "seed": args.seed,
        "modes": list(w.modes),
        "config_digest": config_digest(cfg),
        "weights_sha256": weights_sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qwavenet": qwavenet.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "mallopt": MALLOPT,
    }
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def check_canary(args, w, cfg, modes, recorded) -> list:
    """For a seed without a recorded digest, hold ``generate`` to the one of seed mod 64.

    The in-run reference shares the program's primitives, so this keeps every
    run checked against bits recorded from a known-good commit.
    """
    seed = args.seed % RECORDED_SEEDS
    if not recorded or str(args.seed) in recorded[digest_key(w.name, modes[0])]:
        return []
    ws, warm = w.weights(cfg, seed), warmup_samples(seed)
    return [
        f"{mode}: generate differs from the recorded digest of seed {seed}"
        for mode in modes
        if digest(generate(cfg, ws, warm, n=w.n, mode=mode).bins)
        != recorded[digest_key(w.name, mode)][str(seed)]
    ]


def trace_checks(cfg, m, itemsize: int) -> list:
    """Count invariants and the self-time accounting of a traced run."""
    problems = []
    layers = len(validate_config(cfg))
    if m["engine.matvecs_per_sample"] != 2 * layers + 1:
        problems.append(f"matvecs per sample {m['engine.matvecs_per_sample']}, expected {2 * layers + 1}")
    want_mb = estimate_queue_memory(cfg).total * itemsize / 1e6
    if m["queues.queue_mb"] != want_mb:
        problems.append(f"queue storage {m['queues.queue_mb']} MB, estimate {want_mb} MB")
    parts = ["inference.fc_us", "inference.argmax_us", "inference.dequantize_us", "inference.glue_us"]
    parts += [f"queues.conv_step_us.L{i:02d}" for i in range(MAX_LAYERS)]
    total, p50 = sum(m[k] for k in parts), m["inference.step_us.p50"]
    print(f"report: self times + glue = {total:.1f} us, step p50 = {p50:.1f} us")
    if abs(total - p50) > SELF_TIME_TOLERANCE * p50:
        problems.append(f"self times + glue {total:.1f} us vs step p50 {p50:.1f} us")
    return problems


def print_layer_table(cfg, m, cycles):
    print("layer    rows x cols  cycles    us      ns/cycle")
    specs = validate_config(cfg)
    for i, s in enumerate(specs):
        name = tracing.conv_span(i)
        us = m[f"queues.conv_step_us.L{i:02d}"]
        print(f"L{i:02d}     {s.out_channels:4d} x {s.in_channels:<4d}  {cycles[name]:6d}  {us:8.1f}  {us * 1e3 / cycles[name]:8.2f}")
    fc = cycles["inference.fc"]
    print(f"FC      {cfg.quant_levels:4d} x {cfg.channels:<4d}  {fc:6d}  {m['inference.fc_us']:8.1f}  {m['inference.fc_us'] * 1e3 / fc:8.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small model, for the smoke check")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
