"""Sample-by-sample generation, quantization, and teacher forcing."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import expected_op_counts, small_configs
from qwavenet import (
    DEFAULT_PARALLELISM,
    FixedMode,
    LayerState,
    ModelConfig,
    OpStats,
    ParallelismParams,
    RealMode,
    Waveform,
    WeightSet,
    argmax_sample,
    default_layer_params,
    dequantize,
    dilated_conv_step,
    generate,
    generate_naive,
    matvec,
    matvec_cols,
    mul_raw,
    parse_mode,
    quantize,
    random_weights,
    teacher_forced_layer_outputs,
    validate_config,
)
from qwavenet import numerics
from qwavenet.engine import _lower
from qwavenet.inference import _generate, _prepare, _run, _Session, static_headroom
from qwavenet.queues import naive_dilated_conv_sequence

TINY = ModelConfig(num_blocks=1, layers_per_block=4, channels=8)


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


@pytest.mark.parametrize("levels", [2**32, 2**60], ids=["2**32", "2**60"])
def test_quantize_refuses_level_counts_past_the_config_bound(levels):
    # 2**60 levels put quantize(1.0) one past the last bin; 2**63 wrapped to -2**63
    with pytest.raises(ValueError, match="levels"):
        quantize(1.0, levels)
    with pytest.raises(ValueError, match="levels"):
        dequantize(0, levels)


def test_quantize_roundtrips_the_ends_at_the_largest_level_count():
    levels = 2**32 - 1
    assert quantize(-1.0, levels) == 0
    assert quantize(1.0, levels) == levels - 1
    assert dequantize(quantize(-1.0, levels), levels) == -1.0
    assert dequantize(quantize(1.0, levels), levels) == 1.0


@pytest.mark.parametrize("levels", [16.5, 256.0, True, np.int64(256)])
def test_quantize_takes_int_levels_only(levels):
    # 16.5 levels would put bin 3 at -0.6129 and 0.3 on bin 10, off any lattice
    with pytest.raises(TypeError, match="levels"):
        quantize(0.3, levels)
    with pytest.raises(TypeError, match="levels"):
        dequantize(3, levels)


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


@pytest.mark.parametrize("shapes", [(3, 4), ((2, 2), (2, 2))])
def test_waveform_refuses_samples_and_bins_of_different_shapes(shapes):
    samples, bins = np.zeros(shapes[0]), np.zeros(shapes[1], dtype=np.int64)
    with pytest.raises(ValueError, match="samples/bins must be equal-length 1-D"):
        Waveform(samples, bins, 16000)


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


@pytest.mark.parametrize("n", [2.5, True, np.int64(3)])
def test_generate_takes_int_sample_count_only(n):
    # n=True would emit one sample, and n=2.5 fail deep inside numpy
    ws = random_weights(TINY, seed=3)
    for gen in (generate, generate_naive):
        with pytest.raises(TypeError, match="sample count"):
            gen(TINY, ws, n=n)


def test_generate_seed_drives_queues():
    # the rings advance once per seed sample and once per emitted sample,
    # and each ring's last-written row holds k0 times the last input its
    # layer received
    ws = random_weights(TINY, seed=3)
    mode = RealMode()
    for seed_len in (0, 1, 3, 7):
        seed = np.linspace(-0.5, 0.5, seed_len) if seed_len else None
        sess = _Session(TINY, ws, mode)
        feed = [0.0] if seed_len == 0 else list(seed)
        xs = mode.from_real(np.array(feed))[:, None]
        for t in range(len(feed)):
            sess.forward(xs[: t + 1])
        n = 11
        x = 0.25
        for _ in range(n):
            xs = np.concatenate([xs, mode.from_real(np.array([[x]]))])
            inputs = [xs[-1]]
            logits = sess.forward(xs, observe=lambda t, i, out: inputs.append(out))
            x = dequantize(argmax_sample(logits), TINY.quant_levels)
        total = len(feed) + n
        for ring, (k0, _), p, x_in in zip(sess.rings, sess.kernels, sess.params, inputs):
            want = matvec(k0, x_in, p=p, mode=RealMode())
            assert np.array_equal(ring[(total - 1) % ring.shape[0]], want)


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


STEP_MODES = ["real", "fixed<27,8>", "fixed<16,3>", "fixed<10,1>"]
COUNTED = ModelConfig(num_blocks=2, layers_per_block=3, channels=6, quant_levels=32)


def recorded_counts(gen, n, text):
    """The ``OpStats`` of one run of ``gen`` on COUNTED: 3 seed samples, then n."""
    stats = OpStats()
    ws = random_weights(COUNTED, seed=4, scale=2.0)
    gen(COUNTED, ws, seed_samples=[0.5, -0.25, 0.75], n=n, mode=parse_mode(text), stats=stats)
    return stats


def test_generate_matvec_count_is_constant_per_sample():
    """The queue path records (2L+1)·S matvecs and (C+F)·S MACs for S =
    seed + n steps, in every mode (``expected_op_counts``)."""
    for text in STEP_MODES:
        for n in (1, 5, 17):
            assert recorded_counts(generate, n, text) == expected_op_counts(COUNTED, 3 + n)[0]


def test_generate_naive_counts_grow_with_history():
    """The full-history path records 2L·S(S+1)/2 + S matvecs and
    C·S(S+1)/2 + F·S MACs for S = seed + n steps, in every mode."""
    for text in STEP_MODES:
        for n in (1, 5, 17):
            assert recorded_counts(generate_naive, n, text) == expected_op_counts(COUNTED, 3 + n)[1]


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
    assert np.array_equal(sink_fast, sink_naive)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(2, 6),
    st.integers(8, 32),
    st.integers(0, 10_000),
    st.sampled_from(STEP_MODES),
    st.sampled_from([0.25, 2.0]),
)
@example(3, 6, 16, 0, "fixed<16,3>", 2.0)  # exact lane sums, no fold
@example(3, 6, 16, 0, "fixed<10,1>", 2.0)  # folds that clip
def test_generate_naive_property(layers, channels, levels, seed, text, scale):
    """The queue generator equals the full-history oracle bit for bit, bins
    and logits, in every mode.  Scale 2.0 fails the row bound in the narrow
    formats: the pinned fixed<16,3> example then takes the exact lane sums,
    and the fixed<10,1> one the clipped fold."""
    cfg = ModelConfig(
        num_blocks=1, layers_per_block=layers, channels=channels, quant_levels=levels
    )
    ws = random_weights(cfg, seed=seed, scale=scale)
    mode = parse_mode(text)
    sink_fast, sink_naive = [], []
    fast = generate(cfg, ws, n=40, mode=mode, logit_sink=sink_fast)
    naive = generate_naive(cfg, ws, n=40, mode=mode, logit_sink=sink_naive)
    assert np.array_equal(fast.bins, naive.bins)
    assert np.array_equal(sink_fast, sink_naive)


def lowered(w, p, mode, bias=None):
    return _lower(mode.from_real(w), p.num_parallel_in, mode, bias)


@settings(max_examples=12, deadline=None)
@given(small_configs(), st.sampled_from([0.25, 2.0]), st.integers(0, 2**31))
def test_stacked_step_matches_input_queue_reference(cfg, scale, seed):
    """The session's one stacked matvec per layer, with its product rings,
    gives the bits of the input-queue step on separately lowered k0 and k1,
    over enough steps that every ring wraps, and records the analytic count
    of each step.  Scale 2.0 fails
    the row bound in the narrow formats, onto the exact lane sums and the
    clipped fold."""
    ws = random_weights(cfg, seed=seed, scale=scale)
    specs = validate_config(cfg)
    params = default_layer_params(specs)
    xs = np.random.default_rng(seed).uniform(-1, 1, max(s.dilation for s in specs) + 3)
    for text in STEP_MODES:
        mode = parse_mode(text)
        sess = _Session(cfg, ws, mode, OpStats())
        states = [LayerState.fresh(s, dtype=mode.dtype) for s in specs]
        pairs = [(lowered(k0, p, mode), lowered(k1, p, mode)) for (k0, k1), p in zip(ws.kernels, params)]
        fc = lowered(ws.fc_weight.T, DEFAULT_PARALLELISM, mode, mode.from_real(ws.fc_bias))
        native = mode.from_real(xs)[:, None]
        for t, x in enumerate(xs):
            outs = []
            logits = sess.forward(native[: t + 1], observe=lambda _, i, out: outs.append(out))
            cur = mode.from_real(np.array([x]))
            for i, (state, (k0, k1), p) in enumerate(zip(states, pairs, params)):
                cur = dilated_conv_step(state, cur, k0, k1, p=p, mode=mode)
                assert np.array_equal(outs[i], cur), f"{text}: layer {i}, step {t}"
            want = matvec(fc, cur, p=DEFAULT_PARALLELISM, mode=mode)
            assert np.array_equal(logits, want), f"{text}: logits, step {t}"
            assert sess.stats == expected_op_counts(cfg, t + 1)[0], f"{text}: counts, step {t}"


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
    for layers in ([0, 3], np.array([3, 0])):  # numpy integers are indices too
        sub = teacher_forced_layer_outputs(cfg, ws, inputs, record_layers=layers)
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


@pytest.mark.parametrize("layers", [[2], [-1], [0, 2], np.array([1, 2])])
def test_teacher_forced_refuses_out_of_range_layer_indices(layers):
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    ws = random_weights(cfg, seed=1)
    with pytest.raises(ValueError, match="out of range"):
        teacher_forced_layer_outputs(cfg, ws, np.zeros(3), record_layers=layers)


@pytest.mark.parametrize("layers", [[0.5], [True], [np.float64(1.0)], [0, "1"]])
def test_teacher_forced_refuses_non_integer_layer_indices(layers):
    # 0.5 used to record layer 0 and True layer 1
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    ws = random_weights(cfg, seed=1)
    with pytest.raises(ValueError, match="integer indices"):
        teacher_forced_layer_outputs(cfg, ws, np.zeros(3), record_layers=layers)


@pytest.mark.parametrize("mode", [RealMode(), FixedMode()], ids=["real", "fixed"])
def test_forward_observer_sees_every_layer_in_sweep_order(mode):
    cfg = ModelConfig(num_blocks=2, layers_per_block=3, channels=4)
    sess = _Session(cfg, random_weights(cfg, seed=3), mode)
    xs = mode.from_real(np.array([[0.25], [-0.5], [0.0]]))
    seen = []
    for t in range(len(xs)):
        sess.forward(xs[: t + 1], observe=lambda t, i, out: seen.append((t, i, out.dtype, out.shape)))
    L = cfg.total_layers
    assert [(t, i) for t, i, _, _ in seen] == [(t, i) for t in range(3) for i in range(L)]
    assert all(dtype == mode.dtype and shape == (4,) for _, _, dtype, shape in seen)


@pytest.mark.parametrize("text", ["real", "fixed<27,8>", "fixed<16,3>", "fixed<2,1>", "fixed<27,27>"])
@pytest.mark.parametrize("levels", [2, 3, 256])
def test_fed_back_inputs_are_the_lattice_rows(text, levels):
    """Every bin fed back enters the backend as the native value the step
    loop used to convert on each step: ``from_real`` of its dequantized
    sample.  Forced samples enter as ``from_real`` of each one."""
    mode = parse_mode(text)
    session = SimpleNamespace(mode=mode, cfg=SimpleNamespace(quant_levels=levels))
    forced = np.array([-1.0, 0.3, 1.0])
    seen = []

    def backend(session, xs):
        # step t emits bin t - 2 (clamped), so the fed-back inputs walk every level
        seen.append(xs.copy())
        logits = np.zeros(levels)
        logits[min(max(len(xs) - 3, 0), levels - 1)] = 1.0
        return logits

    bins = _run(session, backend, forced, levels)
    xs = seen[-1]
    assert [len(x) for x in seen] == list(range(1, len(forced) + levels + 1))
    assert all(np.array_equal(x, xs[: len(x)]) for x in seen)
    assert xs.dtype == mode.from_real(forced).dtype and xs.shape == (len(forced) + levels, 1)
    for t, x in enumerate(forced):
        assert np.array_equal(xs[t], mode.from_real(np.array([x])))
    for b in range(levels):
        assert bins[len(forced) + b - 1] == b
        assert np.array_equal(xs[len(forced) + b], mode.from_real(np.array([dequantize(b, levels)])))


@pytest.mark.parametrize("forward", [_Session.forward, _Session.forward_naive])
def test_fixed_point_backends_refuse_real_input_sequences(forward):
    # a float sequence in a fixed-point session would be truncated to raws
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    sess = _Session(cfg, random_weights(cfg, seed=3), FixedMode())
    with pytest.raises(TypeError, match="from_real"):
        forward(sess, np.array([[0.5], [0.25]]))
    assert not any(ring.any() for ring in sess.rings)


@pytest.mark.parametrize(
    "mode, dtype", [(RealMode(), np.float64), (FixedMode(), np.int32)], ids=["real", "fixed"]
)
def test_default_session_rings_hold_one_word_per_delayed_product(mode, dtype):
    """The default model's rings hold 2·(2^14 - 1)·128 products: float64 in
    real mode, int32 raws in fixed point, half the bytes of int64."""
    cfg = ModelConfig()
    rings = _Session(cfg, random_weights(cfg, seed=1), mode).rings
    assert {r.dtype for r in rings} == {np.dtype(dtype)}
    assert sum(r.size for r in rings) == 4194048


@pytest.mark.parametrize("text", ["fixed<27,8>", "fixed<16,3>"])
def test_static_headroom_is_the_larger_row_bound_of_each_pair(text):
    cfg = ModelConfig(num_blocks=2, layers_per_block=3, channels=8)
    ws = random_weights(cfg, seed=4, scale=1.0)
    mode = parse_mode(text)
    fmt = mode.fmt
    bounds = [
        [mode.row_bound(lowered(k, p, mode), 1 << fmt.frac_bits) / fmt.raw_max for k in pair]
        for pair, p in zip(ws.kernels, default_layer_params(validate_config(cfg)))
    ]
    # each tap holds the larger bound in some layer, so neither half alone passes
    assert any(b0 > b1 for b0, b1 in bounds) and any(b1 > b0 for b0, b1 in bounds)
    assert static_headroom(_Session(cfg, ws, mode)) == [max(pair) for pair in bounds]


def test_static_headroom_refuses_non_fixed_modes():
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    with pytest.raises(TypeError, match="fixed-point mode"):
        static_headroom(_Session(cfg, random_weights(cfg, seed=1), RealMode()))


# ---------------------------------------------------------------------------
# prepared steps


PREPARED_MODES = ["real", "fixed<27,8>", "fixed<24,4>", "fixed<16,3>", "fixed<10,1>", "fixed<2,1>", "fixed<27,27>"]


def generated_inputs(mode, n, rng):
    """n-vectors a generator can feed a step: samples in [-1, 1] in real
    mode, raws with |x| <= 2^f in fixed point; the first holds both ends and
    0, the second is all zeros, the last is all the top end."""
    if isinstance(mode, RealMode):
        lo, hi = -1.0, 1.0
        xs = [rng.uniform(lo, hi, n) for _ in range(4)]
    else:
        fmt = mode.fmt
        lo, hi = max(fmt.raw_min, -(1 << fmt.frac_bits)), min(fmt.raw_max, 1 << fmt.frac_bits)
        xs = [rng.integers(lo, hi + 1, n) for _ in range(4)]
    xs[0][: min(n, 3)] = [lo, hi, 0][: min(n, 3)]
    xs[1][:] = 0
    xs[3][:] = hi
    return xs


def rung_matrices(mode, n, rng):
    """(5, n) weights with the rung ``FixedMode.prepare`` should give them:
    small ones whose row bound fits; full-range ones with a row of raw_max,
    past the bound, and no raw_min, so no product can clip; and the same
    with a row of raw_min, whose products can clip.  Real mode has one
    rung.  In fixed<2,1> (raw_max 1) only a zero row of one input fits, so
    for n > 1 the small weights, all zero, take the lanes."""
    if isinstance(mode, RealMode):
        return [(rng.uniform(-s, s, (5, n)), "kernel") for s in (0.02, 1.0)]
    fmt = mode.fmt
    small = rng.integers(int(fmt.raw_min * 0.02), int(fmt.raw_max * 0.02) + 1, (5, n))
    lanes = rng.integers(fmt.raw_min + 1, fmt.raw_max + 1, (5, n))
    lanes[0] = fmt.raw_max
    ladder = lanes.copy()
    ladder[0] = fmt.raw_min
    tiny = str(mode) == "fixed<2,1>" and n > 1
    return [(small, "lanes" if tiny else "shortcut"), (lanes, "lanes"), (ladder, "ladder")]


@pytest.mark.parametrize("text", PREPARED_MODES)
@pytest.mark.parametrize("p_in", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [8, 7, 1], ids=["full-chunks", "short-last-chunk", "one-input"])
def test_prepared_step_equals_matvec(monkeypatch, text, p_in, n):
    """The prepared step of a lowered matrix gives ``matvec``'s bits on every
    generated input, with and without a bias (the readout has one), on each
    rung ``mode.prepare`` gives: the static shortcut, the exact lanes
    through the tree, or the engine's kernel.  Where a lane can hold two
    products (n > p_in), some input of the lanes rung fails the lane test,
    so its step runs the fold on its products, and some passes."""
    mode = parse_mode(text)
    rng = np.random.default_rng([p_in, n, len(text)])
    p = ParallelismParams(1, p_in)
    folds, fold = [], numerics._fold
    monkeypatch.setattr(numerics, "_fold", lambda q, fmt: folds.append(q.shape) or fold(q, fmt))
    taken, lane_tests = set(), set()
    for W, rung in rung_matrices(mode, n, rng):
        if isinstance(mode, FixedMode):
            bias = rng.integers(mode.fmt.raw_min, mode.fmt.raw_max + 1, 5)
        else:
            bias = rng.uniform(-1, 1, 5)
        for b in (None, bias):
            w = _lower(W, p_in, mode, b)
            assert mode.prepare(w)[0] == rung
            taken.add(rung)
            step = _prepare(w)
            for x in generated_inputs(mode, n, rng):
                folds.clear()
                got = step(x)
                if rung == "lanes":
                    lane_tests.add(not folds)
                want = matvec(w, x, p=p, mode=mode)
                assert got.dtype == want.dtype and np.array_equal(got, want)
    if isinstance(mode, FixedMode):
        rungs = {"shortcut", "lanes", "ladder"}
        assert taken == (rungs - {"shortcut"} if text == "fixed<2,1>" and n > 1 else rungs)
        assert lane_tests == ({True, False} if n > p_in else {True})


def count_scans(monkeypatch):
    calls = []
    scan = numerics._max_abs

    def counted(arr, fmt):
        calls.append(arr.shape)
        return scan(arr, fmt)

    monkeypatch.setattr(numerics, "_max_abs", counted)
    return calls


@pytest.mark.parametrize("text, ladder_layers", [("fixed<27,8>", 0), ("fixed<16,3>", 27)])
def test_generated_steps_scan_only_where_the_static_bound_fails(monkeypatch, text, ladder_layers):
    """On the bundle model a generated step scans its newest input once and
    nothing else.  In fixed<27,8> every layer and the readout take the
    static shortcut; in fixed<16,3> 27 layers and the readout fail the
    static bound but take the exact lanes, which scan nothing whether their
    lane test passes or not.  Only a matrix with a weight raw of raw_min
    would run ``mac`` whole and scan again.  More scans would be a lost
    rung, fewer a rung the bounds do not cover."""
    cfg = ModelConfig()
    mode = parse_mode(text)
    sess = _Session(cfg, random_weights(cfg, seed=2020, scale=0.25), mode)
    ladder = [h > 1 for h in static_headroom(sess)]
    assert sum(ladder) == ladder_layers
    ladder.append(mode.generated_headroom(sess.fc_wt) > 1)
    rungs = [mode.prepare(w)[0] for w in (*sess.taps, sess.fc_wt)]
    assert rungs == ["lanes" if fails else "shortcut" for fails in ladder]
    sess.steps  # lower the taps before counting
    calls = count_scans(monkeypatch)
    _generate(sess, _Session.forward, [0.25, -1.0], 2)
    assert calls == [(1,)] * 4


@pytest.mark.parametrize("bad", [2**19 + 1, -(2**19) - 1, 2**26 - 1])
def test_forward_refuses_a_newest_raw_past_one_before_writing_a_ring(bad):
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    sess = _Session(cfg, random_weights(cfg, seed=3), FixedMode())
    xs = np.array([[1 << 19], [bad]])
    with pytest.raises(ValueError, match="past"):
        sess.forward(xs)
    assert not any(ring.any() for ring in sess.rings)
    sess.forward(xs[:1])  # the bound itself is a generated input
    assert all(ring.any() for ring in sess.rings[:1])


def test_entry_points_keep_their_checks_beside_prepared_steps():
    """A session's prepared shortcut checks nothing, but the matrices it was
    built from, and every public entry point, still refuse floats and raws
    out of range."""
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    mode = FixedMode()
    fmt = mode.fmt
    sess = _Session(cfg, random_weights(cfg, seed=3), mode)
    taps = sess.taps[1]
    assert mode.prepare(taps)[0] == "shortcut"
    p = sess.params[1]
    for bad, err in ((np.full(4, 0.5), TypeError), (np.array([0, 0, 0, fmt.raw_max + 1]), ValueError)):
        with pytest.raises(err):
            matvec(taps, bad, p=p, mode=mode)
        with pytest.raises(err):
            matvec_cols(taps, bad[:, None], p=p, mode=mode)
        with pytest.raises(err):
            mul_raw(bad, np.ones(4, np.int64), fmt)
    with pytest.raises(TypeError):
        mode.add(np.full(4, 0.5), np.zeros(4, np.int64))
    with pytest.raises(TypeError):
        mode.tanh(np.full(4, 0.5))
    with pytest.raises(ValueError, match="does not fit int64"):
        mode.tanh(np.array([2**64 - 1], np.uint64))


@pytest.mark.parametrize("mode", [RealMode(), FixedMode()], ids=["real", "fixed"])
def test_forced_and_seed_samples_refuse_nan(mode):
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    ws = random_weights(cfg, seed=1)
    with pytest.raises(ValueError, match=r"input samples must lie in \[-1, 1\]"):
        teacher_forced_layer_outputs(cfg, ws, np.array([0.0, np.nan]), mode=mode)
    with pytest.raises(ValueError, match=r"seed samples must lie in \[-1, 1\]"):
        generate(cfg, ws, seed_samples=[np.nan], n=1, mode=mode)


def test_seed_and_forced_samples_must_be_one_dimensional():
    # seeds and forced inputs pass the same check
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=4)
    ws = random_weights(cfg, seed=1)
    flat = np.zeros((2, 2))
    for gen in (generate, generate_naive):
        with pytest.raises(ValueError, match="seed samples must be a 1-D sample sequence"):
            gen(cfg, ws, seed_samples=flat, n=1)
    with pytest.raises(ValueError, match="input samples must be a 1-D sample sequence"):
        teacher_forced_layer_outputs(cfg, ws, flat)


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
