"""Sample-by-sample generation, quantization, and teacher forcing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwavenet import (
    FixedMode,
    ModelConfig,
    OpStats,
    ParallelismParams,
    RealMode,
    WeightSet,
    argmax_sample,
    dequantize,
    generate,
    generate_naive,
    matvec,
    quantize,
    random_weights,
    teacher_forced_layer_outputs,
    validate_config,
)
from qwavenet.queues import naive_dilated_conv_sequence

TINY = ModelConfig(num_blocks=1, layers_per_block=4, channels=8)


def lattice_weights(cfg, seed, scale=0.25):
    """Random weights snapped to the fixed<27,8> grid.

    Every value is a multiple of 2**-19 with magnitude below 1, so it is
    exactly representable in float32, float64, and the fixed-point format.
    """
    ws = random_weights(cfg, seed=seed, scale=scale)

    def snap(a):
        return (np.round(a.astype(np.float64) * 2.0**19) / 2.0**19).astype(np.float32)

    return WeightSet(
        kernels=tuple((snap(k0), snap(k1)) for k0, k1 in ws.kernels),
        fc_weight=snap(ws.fc_weight),
        fc_bias=snap(ws.fc_bias),
    )


# ---------------------------------------------------------------------------
# quantization


def test_quantize_known_values():
    assert quantize(-1.0, 256) == 0
    assert quantize(1.0, 256) == 255
    assert quantize(0.0, 256) == 128  # midpoint 127.5 rounds half away from zero
    assert quantize(-5.0, 256) == 0  # clamps before binning
    assert quantize(5.0, 256) == 255


def test_dequantize_known_values():
    assert dequantize(0, 256) == -1.0
    assert dequantize(255, 256) == 1.0
    assert dequantize(128, 256) == pytest.approx(2 * 128 / 255 - 1)


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize(0.0, 1)
    with pytest.raises(ValueError):
        dequantize(0, 1)
    with pytest.raises(ValueError):
        dequantize(256, 256)
    with pytest.raises(ValueError):
        dequantize(-1, 256)


@pytest.mark.parametrize("bins", [2.5, np.array([1.5])], ids=["scalar", "array"])
def test_dequantize_rejects_non_integer_bins(bins):
    # 2.5 would map to -0.2857, between the lattice points -0.4286 and -0.1429
    with pytest.raises(ValueError, match="integers"):
        dequantize(bins, 8)


def test_quantize_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        quantize(np.nan, 256)
    with pytest.raises(ValueError, match="NaN"):
        quantize(np.array([0.0, np.nan]), 256)
    assert quantize(np.array([-np.inf, np.inf]), 256).tolist() == [0, 255]


def test_quantize_array_matches_scalar():
    xs = np.linspace(-1.2, 1.2, 97)
    bins = quantize(xs, 256)
    assert bins.dtype == np.int64
    assert list(bins) == [quantize(float(x), 256) for x in xs]
    back = dequantize(bins, 256)
    assert list(back) == [dequantize(int(b), 256) for b in bins]


def test_quantize_roundtrip_exhaustive():
    bins = np.arange(256)
    assert np.array_equal(quantize(dequantize(bins, 256), 256), bins)


@given(st.integers(2, 1024), st.floats(-1, 1, allow_nan=False))
def test_quantize_error_bound(levels, x):
    # half a bin step, plus an ulp of slack for values landing on a midpoint
    err = abs(dequantize(quantize(x, levels), levels) - x)
    assert err <= 1.0 / (levels - 1) + 1e-12


@given(st.integers(2, 1024), st.integers(0, 2**30))
def test_quantize_roundtrip_property(levels, seed):
    b = seed % levels
    assert quantize(dequantize(b, levels), levels) == b


def test_quantize_floor_rule():
    # binning rounds the non-negative scaled value u half up, so a value
    # exactly between two centers always maps to the higher bin
    assert quantize(0.5, 3) == 2
    assert quantize(-0.5, 3) == 1
    assert quantize(0.49, 3) == 1
    assert quantize(-0.51, 3) == 0


def test_quantize_rounds_just_below_half_down():
    # (1 - 2**-53) / 2 = 0.5 - 2**-54 is exact, and floor(u + 0.5) would
    # round that sum up to 1
    assert quantize(-(2.0**-53), 2) == 0
    assert quantize(np.array([-(2.0**-53)]), 2).tolist() == [0]


# ---------------------------------------------------------------------------
# sampling


def test_argmax_examples():
    assert argmax_sample(np.array([0.1, 0.9, 0.3])) == 1
    assert argmax_sample(np.array([5.0])) == 0
    # ties resolve to the lowest index
    assert argmax_sample(np.array([1.0, 3.0, 3.0, 2.0])) == 1
    with pytest.raises(ValueError):
        argmax_sample(np.array([]))
    # np.argmax would pick the first NaN; a non-finite logit is refused instead
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            argmax_sample(np.array([0.1, bad, 0.3]))


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
def test_argmax_matches_scan(vals):
    best = 0
    for i, v in enumerate(vals):
        if v > vals[best]:
            best = i
    assert argmax_sample(np.array(vals, dtype=np.float64)) == best


# ---------------------------------------------------------------------------
# generation basics


def test_generate_zero_weights_emits_bottom_bin():
    """All-zero weights give all-zero logits; ties resolve to bin 0."""
    specs = validate_config(TINY)
    ws = WeightSet(
        kernels=tuple(
            (np.zeros((s.out_channels, s.in_channels), np.float32),) * 2 for s in specs
        ),
        fc_weight=np.zeros((TINY.channels, TINY.quant_levels), np.float32),
        fc_bias=np.zeros(TINY.quant_levels, np.float32),
    )
    wf = generate(TINY, ws, n=10)
    assert np.array_equal(wf.bins, np.zeros(10, dtype=np.int64))
    assert np.all(wf.samples == -1.0)


def test_generate_shapes_and_lattice():
    ws = random_weights(TINY, seed=3)
    wf = generate(TINY, ws, n=25)
    assert len(wf) == 25
    assert wf.samples.shape == (25,)
    assert wf.bins.shape == (25,)
    assert wf.sample_rate == TINY.sample_rate
    assert np.array_equal(wf.samples, dequantize(wf.bins, TINY.quant_levels))


def test_generate_deterministic():
    ws = random_weights(TINY, seed=3)
    a = generate(TINY, ws, n=40)
    b = generate(TINY, ws, n=40)
    assert np.array_equal(a.bins, b.bins)
    assert np.array_equal(a.samples, b.samples)


def test_generate_validation():
    ws = random_weights(TINY, seed=3)
    with pytest.raises(ValueError):
        generate(TINY, ws, n=0)
    with pytest.raises(ValueError):
        generate(TINY, ws, seed_samples=np.array([1.5]), n=1)


def test_generate_seed_drives_queues():
    # queue heads advance once per seed sample and once per emitted sample
    ws = random_weights(TINY, seed=3)
    from qwavenet.inference import _Session

    for seed_len in (0, 1, 3, 7):
        seed = np.linspace(-0.5, 0.5, seed_len) if seed_len else None
        sess = _Session(TINY, ws, RealMode())
        feed = [0.0] if seed_len == 0 else list(seed)
        for x in feed:
            sess.forward(float(x), None)
        n = 11
        x = 0.25
        for _ in range(n):
            logits = sess.forward(x, None)
            x = dequantize(argmax_sample(logits), TINY.quant_levels)
        total = len(feed) + n
        for st_ in sess.layers:
            assert st_.queue.head == total % st_.queue.length


def test_generate_rejects_non_finite_weights():
    ws = random_weights(TINY, seed=3)
    k0 = ws.kernels[1][0].copy()
    k0[0, 0] = np.nan
    kernels = (ws.kernels[0], (k0, ws.kernels[1][1])) + ws.kernels[2:]
    bad = WeightSet(kernels=kernels, fc_weight=ws.fc_weight, fc_bias=ws.fc_bias)
    with pytest.raises(ValueError, match="non-finite"):
        generate(TINY, bad, n=8)


def test_generate_empty_seed_equals_zero_seed():
    ws = random_weights(TINY, seed=3)
    a = generate(TINY, ws, n=30)
    b = generate(TINY, ws, seed_samples=np.array([0.0]), n=30)
    assert np.array_equal(a.bins, b.bins)


def test_generate_matvec_count_is_constant_per_sample():
    # 2 matvecs per layer plus the readout, for seed pass and every sample
    ws = random_weights(TINY, seed=3)
    per_sample = 2 * TINY.total_layers + 1
    for n in (1, 5, 17):
        stats = OpStats()
        generate(TINY, ws, n=n, stats=stats)
        assert stats.matvec_calls == per_sample * (n + 1)


# ---------------------------------------------------------------------------
# queue path vs full recompute


@pytest.mark.parametrize("mode", [RealMode(), FixedMode()], ids=["real", "fixed"])
def test_generate_matches_naive_recompute(mode):
    cfg = ModelConfig(num_blocks=1, layers_per_block=4, channels=8)
    ws = random_weights(cfg, seed=7, scale=0.25)
    seed = np.linspace(-0.9, 0.9, 7)
    n = 200

    sink_fast, sink_naive = [], []
    fast = generate(cfg, ws, seed_samples=seed, n=n, mode=mode, logit_sink=sink_fast)
    naive = generate_naive(
        cfg, ws, seed_samples=seed, n=n, mode=mode, logit_sink=sink_naive
    )
    assert np.array_equal(fast.bins, naive.bins)
    assert np.array_equal(fast.samples, naive.samples)
    dev = max(
        float(np.max(np.abs(a - b))) for a, b in zip(sink_fast, sink_naive)
    )
    assert dev == 0.0


@settings(max_examples=8, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(2, 6),
    st.integers(8, 32),
    st.integers(0, 10_000),
    st.booleans(),
)
def test_generate_naive_property(layers, channels, levels, seed, use_lattice):
    cfg = ModelConfig(
        num_blocks=1, layers_per_block=layers, channels=channels, quant_levels=levels
    )
    ws = lattice_weights(cfg, seed) if use_lattice else random_weights(cfg, seed=seed)
    fast = generate(cfg, ws, n=40)
    naive = generate_naive(cfg, ws, n=40)
    assert np.array_equal(fast.bins, naive.bins)


# ---------------------------------------------------------------------------
# teacher forcing


def test_teacher_forced_matches_direct_stack_evaluation():
    """Layer traces must come from the provided inputs, not from feedback.

    Rebuilding every layer's activations directly from the input sequence
    with the whole-history convolution must reproduce the recorded traces
    bit for bit.
    """
    cfg = ModelConfig(num_blocks=1, layers_per_block=5, channels=6)
    specs = validate_config(cfg)
    ws = random_weights(cfg, seed=19, scale=0.3)
    rng = np.random.default_rng(20)
    inputs = rng.uniform(-1, 1, 120)
    mode = RealMode()

    trace = teacher_forced_layer_outputs(cfg, ws, inputs, mode=mode)
    assert set(trace.layer_outputs) == set(range(cfg.total_layers))

    act = inputs[:, None].copy()
    p = ParallelismParams(8, 4)
    p0 = ParallelismParams(1, 1)
    for i, (spec, (k0, k1)) in enumerate(zip(specs, ws.kernels)):
        par = p0 if spec.in_channels == 1 else p
        lin = naive_dilated_conv_sequence(
            act,
            k0.astype(np.float64),
            k1.astype(np.float64),
            spec.dilation,
            p=par,
            mode=mode,
        )
        act = mode.tanh(lin)
        assert np.array_equal(trace.layer_outputs[i], act)

    # the readout W is input-major (in_features, out_features): logits = h @ W + b
    for t, h in enumerate(act):
        logits = matvec(ws.fc_weight.T, h, bias=ws.fc_bias)
        assert trace.bins[t] == argmax_sample(logits)
    assert trace.bins.shape == (120,)
    assert trace.samples.shape == (120,)
    assert np.array_equal(trace.samples, dequantize(trace.bins, cfg.quant_levels))


@pytest.mark.parametrize("mode", [RealMode(), FixedMode()], ids=["real", "fixed"])
def test_teacher_forced_reproduces_generate(mode):
    """Teacher forcing on the inputs ``generate`` consumed gives its bins.

    ``generate`` feeds the seed, then the dequantized warm-up argmax, then
    each emitted sample but the last; forcing exactly that sequence must
    reproduce the emitted bins, and its bins over the seed prefix must equal
    a seed-only teacher-forced run.
    """
    cfg = ModelConfig(num_blocks=2, layers_per_block=3, channels=8, quant_levels=64)
    ws = random_weights(cfg, seed=23, scale=0.3)
    seed = np.linspace(-0.7, 0.6, 9)
    n = 50
    wf = generate(cfg, ws, seed_samples=seed, n=n, mode=mode)

    seed_only = teacher_forced_layer_outputs(cfg, ws, seed, mode=mode, record_layers=[])
    x0 = dequantize(int(seed_only.bins[-1]), cfg.quant_levels)
    forced = np.concatenate([seed, [x0], wf.samples[:-1]])
    trace = teacher_forced_layer_outputs(cfg, ws, forced, mode=mode, record_layers=[])
    assert np.array_equal(trace.bins[: seed.size], seed_only.bins)
    assert np.array_equal(trace.bins[seed.size :], wf.bins)


def test_teacher_forced_record_subset():
    cfg = ModelConfig(num_blocks=1, layers_per_block=4, channels=4)
    ws = random_weights(cfg, seed=1)
    inputs = np.linspace(-0.5, 0.5, 30)
    full = teacher_forced_layer_outputs(cfg, ws, inputs)
    sub = teacher_forced_layer_outputs(cfg, ws, inputs, record_layers=[0, 3])
    assert set(sub.layer_outputs) == {0, 3}
    for i in (0, 3):
        assert np.array_equal(sub.layer_outputs[i], full.layer_outputs[i])
    assert np.array_equal(sub.bins, full.bins)


def test_teacher_forced_validation():
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    ws = random_weights(cfg, seed=1)
    with pytest.raises(ValueError):
        teacher_forced_layer_outputs(cfg, ws, np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        teacher_forced_layer_outputs(cfg, ws, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        teacher_forced_layer_outputs(cfg, ws, np.array([]))


@pytest.mark.parametrize("mode", [RealMode(), FixedMode()], ids=["real", "fixed"])
def test_forced_and_seed_samples_refuse_nan(mode):
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    ws = random_weights(cfg, seed=1)
    with pytest.raises(ValueError, match=r"input samples must lie in \[-1, 1\]"):
        teacher_forced_layer_outputs(cfg, ws, np.array([0.0, np.nan]), mode=mode)
    with pytest.raises(ValueError, match=r"seed samples must lie in \[-1, 1\]"):
        generate(cfg, ws, seed_samples=[np.nan], n=1, mode=mode)


def test_fixed_point_deviation_grows_slowly_with_depth():
    """Real and fixed traces stay within an analytic per-layer envelope.

    Worst-case rounding for one output channel accumulates roughly
    (channels) half-steps per matvec; the envelope below scales that by the
    layer index and a comfortable safety factor, and the observed deviation
    sits far inside it while still growing with depth.
    """
    cfg = ModelConfig(num_blocks=2, layers_per_block=6, channels=64)
    ws = random_weights(cfg, seed=77, scale=0.25)
    rng = np.random.default_rng(88)
    inputs = rng.uniform(-1, 1, 400)

    tr_real = teacher_forced_layer_outputs(cfg, ws, inputs, mode=RealMode())
    tr_fix = teacher_forced_layer_outputs(cfg, ws, inputs, mode=FixedMode())

    devs = []
    for i in range(cfg.total_layers):
        dev = float(np.max(np.abs(tr_real.layer_outputs[i] - tr_fix.layer_outputs[i])))
        bound = (i + 1) * cfg.channels * 2.0**-19 * 4
        assert dev <= bound, f"layer {i + 1}: {dev} > {bound}"
        devs.append(dev)
    # the deviation really does accumulate: the deepest layer is noisier
    # than the first one
    assert devs[-1] > devs[0]


def test_generate_modes_agree_on_bins_mostly():
    # fixed-point rounding may flip an occasional argmax, but with a short
    # horizon and moderate weights the two modes should track each other
    cfg = ModelConfig(num_blocks=1, layers_per_block=4, channels=8)
    ws = random_weights(cfg, seed=5, scale=0.25)
    a = generate(cfg, ws, n=60, mode=RealMode())
    b = generate(cfg, ws, n=60, mode=FixedMode())
    assert np.mean(a.bins == b.bins) >= 0.9
