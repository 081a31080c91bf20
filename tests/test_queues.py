"""Cyclic activation queues and the dilated convolution step.

The queue oracle is a plain shifting list: start with ``length`` zero
vectors, read the head, drop it, append the newest value.  The cyclic
implementation must report identical fronts for every interleaving of reads
and pushes, which also fixes the intended semantics: the front is always the
value pushed ``length`` steps ago (zero before that).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwavenet import (
    CyclicQueue,
    FixedMode,
    LayerSpec,
    LayerState,
    ModelConfig,
    OpStats,
    ParallelismParams,
    RealMode,
    matvec,
    random_weights,
    validate_config,
)
from qwavenet.queues import dilated_conv_step, naive_dilated_conv_sequence

P11 = ParallelismParams(1, 1)
P84 = ParallelismParams(8, 4)


# ---------------------------------------------------------------------------
# queue mechanics


def test_queue_starts_zeroed():
    q = CyclicQueue(4, 3)
    assert q.length == 4 and q.channels == 3
    assert np.array_equal(q.front(), np.zeros(3))


def test_queue_validation():
    with pytest.raises(ValueError):
        CyclicQueue(0, 1)
    with pytest.raises(ValueError):
        CyclicQueue(1, 0)
    q = CyclicQueue(2, 3)
    with pytest.raises(ValueError):
        q.push(np.zeros(4))


def test_queue_rejects_real_values_for_integer_storage():
    q = CyclicQueue(2, 1, dtype=np.int64)
    with pytest.raises(TypeError):
        q.push(np.array([0.5]))
    q.push(np.array([3], dtype=np.int64))


def test_queue_front_is_a_copy():
    q = CyclicQueue(1, 2)
    f = q.front()
    f[:] = 99.0
    assert np.array_equal(q.front(), np.zeros(2))


def test_queue_length_two_sequence():
    q = CyclicQueue(2, 1)
    fronts = []
    for v in (1.0, 2.0, 3.0, 4.0):
        fronts.append(float(q.front()[0]))
        q.push(np.array([v]))
    # front lags pushes by exactly the queue length
    assert fronts == [0.0, 0.0, 1.0, 2.0]


def test_queue_length_one_passthrough():
    q = CyclicQueue(1, 1)
    q.push(np.array([7.0]))
    assert q.front()[0] == 7.0
    q.push(np.array([8.0]))
    assert q.front()[0] == 8.0


@settings(max_examples=100)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 40), st.integers(0, 2**31))
def test_queue_matches_shifting_list_oracle(length, channels, n_pushes, seed):
    rng = np.random.default_rng(seed)
    stream = rng.uniform(-1, 1, (n_pushes, channels))

    q = CyclicQueue(length, channels)
    shift = [np.zeros(channels) for _ in range(length)]
    for v in stream:
        assert np.array_equal(q.front(), shift[0])
        shift.pop(0)
        shift.append(v.copy())
        q.push(v)
    assert np.array_equal(q.front(), shift[0])


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**31))
def test_queue_front_is_delayed_stream(length, n, seed):
    # after pushing x_0..x_{t-1}, the front equals x_{t-length} (zero early on)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, (n, 1))
    q = CyclicQueue(length, 1)
    for t in range(n):
        expect = xs[t - length, 0] if t - length >= 0 else 0.0
        assert q.front()[0] == expect
        q.push(xs[t])


def test_layer_state_fresh():
    spec = validate_config(ModelConfig(num_blocks=1, layers_per_block=3, channels=4))[2]
    st_ = LayerState.fresh(spec)
    assert st_.queue.length == spec.queue_length == 4
    assert st_.queue.channels == spec.in_channels == 4


def test_hand_built_spec_queue_follows_dilation():
    spec = LayerSpec(1, 1, 1, 1, dilation=2)
    assert spec.queue_length == 2
    assert LayerState.fresh(spec).queue.length == 2


# ---------------------------------------------------------------------------
# single convolution step


def test_conv_step_scalar_example():
    """1x1 kernels [1], [1]; queue front 0.3, previous output 0.2.

    The pre-activation is 0.3 + 0.2 = 0.5 and the squashed output is
    tanh(0.5); the high-precision value is 0.46211715726000976.
    """
    spec = LayerSpec(1, 1, 1, 1, dilation=1)
    state = LayerState.fresh(spec)
    state.queue.push(np.array([0.3]))
    k = np.array([[1.0]])
    out = dilated_conv_step(state, np.array([0.2]), k, k, p=P11)
    assert out.shape == (1,)
    assert abs(out[0] - 0.46211715726000976) < 1e-15


def test_conv_step_pushes_current_input():
    # the step must append prev_out to the queue after reading the front
    spec = LayerSpec(1, 1, 1, 1, dilation=2)
    state = LayerState.fresh(spec)
    k0 = np.array([[1.0]])
    k1 = np.array([[0.0]])
    outs = [
        dilated_conv_step(state, np.array([v]), k0, k1, p=P11)[0]
        for v in (1.0, 2.0, 3.0, 4.0)
    ]
    # with K1 = 0 the output is tanh of the front: the input from 2 steps ago
    assert outs == np.tanh([0.0, 0.0, 1.0, 2.0]).tolist()


def test_conv_step_zero_kernels():
    spec = LayerSpec(1, 1, 2, 3, dilation=1)
    state = LayerState.fresh(spec)
    z = np.zeros((3, 2))
    out = dilated_conv_step(state, np.array([0.5, -0.5]), z, z, p=P11)
    assert np.array_equal(out, np.zeros(3))


# ---------------------------------------------------------------------------
# naive convolution over an explicit history


def test_naive_conv_reads_delayed_and_current():
    k0 = np.array([[1.0]])
    k1 = np.array([[10.0]])
    hist = np.array([[1.0], [2.0], [3.0]])
    # at t=2 with dilation 2: K0 @ x_0 + K1 @ x_2
    assert naive_dilated_conv_sequence(hist, k0, k1, dilation=2, p=P11)[-1, 0] == 1.0 + 30.0
    # dilation beyond the history start reads the zero padding
    assert naive_dilated_conv_sequence(hist, k0, k1, dilation=4, p=P11)[-1, 0] == 30.0


def test_naive_conv_sequence_matches_single_steps():
    rng = np.random.default_rng(21)
    hist = rng.uniform(-1, 1, (9, 3))
    k0 = rng.uniform(-1, 1, (4, 3))
    k1 = rng.uniform(-1, 1, (4, 3))
    seq = naive_dilated_conv_sequence(hist, k0, k1, dilation=2, p=P84)
    assert seq.shape == (9, 4)
    for t in range(9):
        delayed_in = hist[t - 2] if t >= 2 else np.zeros(3)
        single = matvec(k0, delayed_in, p=P84) + matvec(k1, hist[t], p=P84)
        assert np.array_equal(seq[t], single)


# ---------------------------------------------------------------------------
# queue path == recompute path, several layers deep


@pytest.mark.parametrize("mode", [RealMode(), FixedMode()], ids=["real", "fixed"])
def test_queue_stack_matches_naive_recompute(mode):
    """Drive a 6-layer stack sample by sample and replay it from scratch.

    The queue path and the full-history recompute must agree bit for bit:
    both route their arithmetic through the same engine, so the only
    difference is where the operands come from.
    """
    cfg = ModelConfig(num_blocks=1, layers_per_block=6, channels=5)
    specs = validate_config(cfg)
    ws = random_weights(cfg, seed=13, scale=0.3)
    n = 200

    rng = np.random.default_rng(14)
    xs = rng.uniform(-1, 1, n)

    states = [LayerState.fresh(s, dtype=mode.dtype) for s in specs]
    queue_outs = np.empty((n, cfg.channels), dtype=mode.dtype)
    kernels = [
        (mode.from_real(k0.astype(np.float64)), mode.from_real(k1.astype(np.float64)))
        for k0, k1 in ws.kernels
    ]
    for t in range(n):
        h = mode.from_real(np.array([xs[t]]))
        for st_, (k0, k1) in zip(states, kernels):
            h = dilated_conv_step(st_, h, k0, k1, p=P84, mode=mode)
        queue_outs[t] = h

    hist = mode.from_real(xs[:, None])
    act = hist
    for spec, (k0, k1) in zip(specs, kernels):
        lin = naive_dilated_conv_sequence(act, k0, k1, spec.dilation, p=P84, mode=mode)
        act = mode.tanh(lin)
    assert np.array_equal(queue_outs, act)


def test_conv_step_counts_two_matvecs():
    stats = OpStats()
    spec = LayerSpec(1, 1, 3, 4, dilation=2)
    state = LayerState.fresh(spec)
    rng = np.random.default_rng(0)
    k0 = rng.uniform(-1, 1, (4, 3))
    k1 = rng.uniform(-1, 1, (4, 3))
    dilated_conv_step(state, np.zeros(3), k0, k1, p=P84, stats=stats)
    assert stats.matvec_calls == 2
    assert stats.mac_ops == 2 * 4 * 3
