"""Acceptance gate: every release criterion, one test each.

Each test records a PASS/FAIL line (printed in the terminal summary) and
then asserts at the stated tolerance.  The heavyweight default-model runs
are shared through module-scoped fixtures so the suite stays inside its
runtime budgets.

Published reference bundle for the fidelity criterion: the default
2 blocks x 14 layers x 128 channels model with uniform random weights drawn
at seed 2020, scale 0.25, teacher-forced on 16000 uniform random samples
drawn at seed 4242.
"""

import time

import numpy as np
import pytest

from qwavenet import (
    FixedMode,
    ModelConfig,
    OpStats,
    ParallelismParams,
    RealMode,
    dequantize,
    estimate_cycles,
    estimate_queue_memory,
    generate,
    generate_naive,
    log_spectral_distance,
    matvec,
    mse,
    quantize,
    random_weights,
    save_weights,
    teacher_forced_layer_outputs,
)
from qwavenet.cli import RunReport, _sha256_file
from qwavenet.model import config_digest

from conftest import expected_op_counts, record_criterion

DEFAULT = ModelConfig()
BUNDLE_WEIGHT_SEED = 2020
BUNDLE_WEIGHT_SCALE = 0.25
BUNDLE_INPUT_SEED = 4242
MATVECS_PER_SAMPLE = 2 * DEFAULT.total_layers + 1  # 57


@pytest.fixture(scope="module")
def bundle_weights():
    return random_weights(DEFAULT, seed=BUNDLE_WEIGHT_SEED, scale=BUNDLE_WEIGHT_SCALE)


@pytest.fixture(scope="module")
def default_real_16k(bundle_weights):
    """One 16000-sample real-mode run of the default model, timed and counted."""
    stats = OpStats()
    t0 = time.perf_counter()
    wf = generate(DEFAULT, bundle_weights, n=16000, mode=RealMode(), stats=stats)
    wall = time.perf_counter() - t0
    return wf, wall, stats


# ---------------------------------------------------------------------------


def test_criterion_1_generator_oracle_equivalence():
    """20 random small configs: queue generator == full-recompute reference,
    bit for bit."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    n_configs = 20
    for i in range(n_configs):
        cfg = ModelConfig(
            num_blocks=int(rng.integers(1, 3)),
            layers_per_block=int(rng.integers(2, 7)),
            channels=int(rng.integers(2, 17)),
        )
        ws = random_weights(cfg, seed=int(rng.integers(0, 2**31)))
        seed_len = int(rng.integers(0, 41))
        seed = rng.uniform(-1, 1, seed_len) if seed_len else None

        sink_fast, sink_naive = [], []
        fast = generate(cfg, ws, seed_samples=seed, n=500, logit_sink=sink_fast)
        naive = generate_naive(cfg, ws, seed_samples=seed, n=500, logit_sink=sink_naive)

        assert np.array_equal(fast.bins, naive.bins), f"config {i}: bins differ"
        assert np.array_equal(sink_fast, sink_naive), f"config {i}: logits differ"

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    record_criterion(
        "criterion 1: generator equals full-recompute oracle on 20 random configs",
        ok,
        f"worst logit deviation 0 (logits bit-equal), {elapsed:.1f}s",
    )
    assert ok, f"runtime budget exceeded: {elapsed:.1f}s >= 60s"


def test_criterion_2_matvec_engine_parity():
    """All 16 parallelism combos equal a sequential loop oracle."""
    t0 = time.perf_counter()
    combos = [ParallelismParams(po, pi) for po in (1, 2, 4, 8) for pi in (1, 2, 4, 8)]
    rng = np.random.default_rng(99)

    def sequential(W, x):
        out = []
        for row in W:
            acc = 0.0
            for wv, xv in zip(row, x):
                acc += wv * xv
            out.append(acc)
        return np.array(out)

    for size in (16, 128):
        W_int = rng.integers(-9, 10, (size, size)).astype(np.float64)
        x_int = rng.integers(-9, 10, size).astype(np.float64)
        want_int = sequential(W_int, x_int)
        W = rng.uniform(-1, 1, (size, size))
        x = rng.uniform(-1, 1, size)
        want = sequential(W, x)
        scale = max(1.0, float(np.max(np.abs(want))))
        for p in combos:
            assert np.array_equal(matvec(W_int, x_int, p=p), want_int), (size, p)
            dev = float(np.max(np.abs(matvec(W, x, p=p) - want)))
            assert dev <= 1e-6 * scale, (size, p, dev)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    record_criterion(
        "criterion 2: matvec engine parity across 16 parallelism combos",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok, f"runtime budget exceeded: {elapsed:.2f}s >= 5s"


def test_criterion_3_fixed_point_fidelity(bundle_weights):
    """Fixed<27,8> vs real teacher forcing on the published bundle.

    The final convolution layer's 16000-step output trace must stay within
    MSE 0.01 and (per-channel, averaged) log-spectral distance 0.2 of the
    real-mode trace; the decoded waveforms must also agree within MSE 0.01.
    The waveform-level LSD is reported for context: occasional argmax flips
    produce isolated full-scale sample differences that dominate that
    figure without reflecting layer-trace fidelity.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(BUNDLE_INPUT_SEED)
    inputs = rng.uniform(-1, 1, 16000)
    last = DEFAULT.total_layers - 1

    tr_real = teacher_forced_layer_outputs(
        DEFAULT, bundle_weights, inputs, mode=RealMode(), record_layers=[last]
    )
    tr_fix = teacher_forced_layer_outputs(
        DEFAULT, bundle_weights, inputs, mode=FixedMode(), record_layers=[last]
    )

    a = tr_real.layer_outputs[last]
    b = tr_fix.layer_outputs[last]
    trace_mse = float(np.mean((a - b) ** 2))
    channel_lsds = [
        log_spectral_distance(a[:, c], b[:, c]) for c in range(DEFAULT.channels)
    ]
    trace_lsd = float(np.mean(channel_lsds))

    wav_real = dequantize(tr_real.bins, DEFAULT.quant_levels)
    wav_fix = dequantize(tr_fix.bins, DEFAULT.quant_levels)
    wave_mse = mse(wav_real, wav_fix)
    wave_lsd = log_spectral_distance(wav_real, wav_fix)

    elapsed = time.perf_counter() - t0
    ok = (
        trace_mse <= 0.01
        and trace_lsd <= 0.2
        and wave_mse <= 0.01
        and elapsed < 600.0
    )
    record_criterion(
        "criterion 3: fixed-point fidelity on the default model",
        ok,
        f"trace MSE {trace_mse:.3g}, trace LSD {trace_lsd:.3g} "
        f"(max {max(channel_lsds):.3g}), waveform MSE {wave_mse:.3g}, "
        f"waveform LSD {wave_lsd:.3g} (informational), {elapsed:.0f}s",
    )
    assert trace_mse <= 0.01
    assert trace_lsd <= 0.2
    assert wave_mse <= 0.01
    assert elapsed < 600.0, f"runtime budget exceeded: {elapsed:.0f}s"


def test_criterion_4_throughput_floor(
    default_real_16k, bundle_weights, tmp_path_factory
):
    """Real mode >= 22 samples/s; fixed mode within 4x of real."""
    wf, wall_real, _ = default_real_16k
    real_rate = len(wf) / wall_real

    t0 = time.perf_counter()
    generate(DEFAULT, bundle_weights, n=2000, mode=FixedMode())
    wall_fixed = time.perf_counter() - t0
    fixed_rate = 2000 / wall_fixed
    ratio = real_rate / fixed_rate

    # the run report captures the measured figure alongside its provenance
    wdir = tmp_path_factory.mktemp("bundle")
    wpath = wdir / "weights.bin"
    save_weights(wpath, bundle_weights, DEFAULT)
    report = RunReport(
        samples_generated=len(wf),
        wall_time=wall_real,
        throughput_hz=real_rate,
        number_mode="real",
        layer_params=[],
        config_digest=config_digest(DEFAULT),
        weights_sha256=_sha256_file(wpath),
    )
    assert report.throughput_hz == real_rate

    ok = real_rate >= 22.0 and ratio <= 4.0
    record_criterion(
        "criterion 4: throughput floor",
        ok,
        f"real {real_rate:.0f} samples/s, fixed {fixed_rate:.0f} samples/s, "
        f"ratio {ratio:.2f}",
    )
    assert real_rate >= 22.0
    assert ratio <= 4.0


def test_criterion_5_constant_work_per_sample(default_real_16k, bundle_weights):
    """Matvec count per sample is flat for the queue path, growing for naive;
    both paths record exactly their analytic counts."""
    _, _, stats_16k = default_real_16k
    counts = {}
    for n in (1, 1000):
        stats = OpStats()
        generate(DEFAULT, bundle_weights, n=n, stats=stats)
        counts[n] = stats.matvec_calls
    counts[16000] = stats_16k.matvec_calls

    # one warm-up pass for the seed sample, then exactly 57 calls per sample
    flat = all(counts[n] == MATVECS_PER_SAMPLE * (n + 1) for n in (1, 1000, 16000))
    per_sample = (counts[16000] - counts[1000]) // 15000
    assert flat
    assert per_sample == MATVECS_PER_SAMPLE == 57

    # the full-recompute reference re-touches the whole history each step;
    # spans are equal width (20 samples) so the deltas compare like for like
    tiny = ModelConfig(num_blocks=1, layers_per_block=4, channels=8)
    tiny_ws = random_weights(tiny, seed=1)
    macs, fast_macs = {}, {}
    exact = True
    for n in (20, 40, 60):
        fast, naive = OpStats(), OpStats()
        generate(tiny, tiny_ws, n=n, stats=fast)
        generate_naive(tiny, tiny_ws, n=n, stats=naive)
        exact = exact and (fast, naive) == expected_op_counts(tiny, n + 1)
        fast_macs[n], macs[n] = fast.mac_ops, naive.mac_ops
    d1 = macs[40] - macs[20]
    d2 = macs[60] - macs[40]
    growing = d2 > d1
    fast_flat = (fast_macs[40] - fast_macs[20]) == (fast_macs[60] - fast_macs[40])

    ok = flat and growing and fast_flat and exact
    record_criterion(
        "criterion 5: constant matvec count per generated sample",
        ok,
        f"{MATVECS_PER_SAMPLE} matvecs/sample at n=1, 1000, 16000; "
        f"naive per-sample cost grows ({d1} -> {d2} MACs per 20 samples); "
        "both paths' counts exact",
    )
    assert growing
    assert fast_flat
    assert exact


def test_criterion_6_quantization_roundtrip():
    """All 256 bins round-trip exactly; random values stay within one step."""
    bins = np.arange(256)
    exact = np.array_equal(quantize(dequantize(bins, 256), 256), bins)

    rng = np.random.default_rng(77)
    xs = rng.uniform(-1, 1, 100_000)
    err = np.abs(dequantize(quantize(xs, 256), 256) - xs)
    worst = float(err.max())
    bounded = worst <= 1.0 / 255.0

    ok = exact and bounded
    record_criterion(
        "criterion 6: quantization round trip",
        ok,
        f"256 bins exact, worst random error {worst:.6f} <= {1 / 255:.6f}",
    )
    assert exact
    assert bounded


def test_criterion_7_queue_memory_table():
    """Per-layer queue element counts match the reference architecture."""
    mem = estimate_queue_memory(DEFAULT)
    expected = []
    for block in (1, 2):
        for layer in range(1, 15):
            in_ch = 1 if (block == 1 and layer == 1) else 128
            expected.append(2 ** (layer - 1) * in_ch)
    table_ok = list(mem.per_layer) == expected
    spots_ok = (
        mem.per_layer[9] == 65_536  # block 1, layer 10
        and mem.per_layer[13] == 1_048_576  # block 1, layer 14
        and mem.per_layer[0] == 1  # block 1, layer 1 reads one channel
        and mem.per_layer[14] == 128  # block 2, layer 1
    )
    ok = table_ok and spots_ok
    record_criterion(
        "criterion 7: queue memory accounting",
        ok,
        f"28 layers, total {mem.total} elements, layer 10 = 65536, layer 14 = 1048576",
    )
    assert table_ok
    assert spots_ok


def test_criterion_8_cost_model():
    """Reference design point and monotonicity over the parallelism grid."""
    ref = estimate_cycles(128, 128, ParallelismParams(8, 4)).estimated_cycles
    powers = [2**k for k in range(8)]  # 1 .. 128

    mono_out = all(
        all(
            estimate_cycles(128, 128, ParallelismParams(po2, pi)).estimated_cycles
            <= estimate_cycles(128, 128, ParallelismParams(po1, pi)).estimated_cycles
            for po1, po2 in zip(powers, powers[1:])
        )
        for pi in powers
    )
    mono_in = all(
        all(
            estimate_cycles(128, 128, ParallelismParams(po, pi2)).estimated_cycles
            <= estimate_cycles(128, 128, ParallelismParams(po, pi1)).estimated_cycles
            for pi1, pi2 in zip(powers, powers[1:])
        )
        for po in powers
    )

    ok = ref == 560 and mono_out and mono_in
    record_criterion(
        "criterion 8: cost model reference point and monotonicity",
        ok,
        f"(128,128) at 8x4 -> {ref} cycles; nonincreasing over powers of two <= 128",
    )
    assert ref == 560
    assert mono_out
    assert mono_in
