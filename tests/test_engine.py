"""Parallel matvec engine against a scalar reference simulation.

The engine promises a specific evaluation order: products are dealt
round-robin to ``num_parallel_in`` accumulators (a power of two), each
accumulator folds its share sequentially, and the accumulators are combined
by an adjacent-pair tree reduction.  The reference simulation below replays
exactly that order one scalar operation at a time, using Python floats in
real mode and the exact ``FxValue`` scalar path in fixed mode, so agreement
must be bit for bit.
"""

import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwavenet import (
    FX27_8,
    FixedMode,
    FxFormat,
    FxValue,
    OpStats,
    ParallelismParams,
    RealMode,
    ShapeMismatchError,
    estimate_cycles,
    fx_add,
    fx_mul,
    matvec,
    matvec_cols,
)

P_COMBOS = [
    ParallelismParams(po, pi) for po in (1, 2, 4, 8) for pi in (1, 2, 4, 8)
]
FX16_3 = FxFormat(16, 3)


def input_major(W):
    """The same matrix stored the way inference lowers weights: W.T contiguous."""
    return np.ascontiguousarray(W.T).T


# ---------------------------------------------------------------------------
# scalar reference simulation


def tree_sum(vals, add):
    vals = list(vals)
    while len(vals) > 1:
        vals = [add(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
    return vals[0]


def lane_tree_dot(prods, p_in, add, zero):
    lanes = []
    for lane in range(p_in):
        acc = zero
        for j in range(lane, len(prods), p_in):
            acc = add(acc, prods[j])
        lanes.append(acc)
    return tree_sum(lanes, add)


def scalar_matvec(W, x, bias, p, add, mul, zero):
    out = []
    for r in range(len(W)):
        prods = [mul(W[r][c], x[c]) for c in range(len(x))]
        val = lane_tree_dot(prods, p.num_parallel_in, add, zero)
        if bias is not None:
            val = add(val, bias[r])
        out.append(val)
    return out


def real_ops():
    return (lambda a, b: a + b), (lambda a, b: a * b), 0.0


def fixed_ops(fmt):
    def add(a, b):
        return fx_add(FxValue(a, fmt), FxValue(b, fmt)).raw

    def mul(a, b):
        return fx_mul(FxValue(a, fmt), FxValue(b, fmt)).raw

    return add, mul, 0


def one_row(vals, p_in, mode=RealMode()):
    """A row of ones times ``vals``: with p_in = 1 the sequential lane fold,
    with p_in = len(vals) the adjacent-pair tree over the values."""
    ones = mode.from_real(np.ones((1, len(vals))))
    return matvec(ones, vals, p=ParallelismParams(1, p_in), mode=mode)[0]


# ---------------------------------------------------------------------------
# one-row order contract


def test_tree_matvec_examples():
    assert one_row(np.array([1.0, 2.0, 3.0, 4.0]), 4) == 10.0
    assert one_row(np.array([5.0]), 1) == 5.0
    # 1000 values on 1024 lanes: the 24 empty lanes hold zeros
    assert one_row(np.arange(1000, dtype=np.float64), 1024) == 499500.0


def test_matvec_cols_rejects_lane_count_not_power_of_two():
    # a duck-typed parallelism object skips ParallelismParams' own check
    p = SimpleNamespace(num_parallel_out=1, num_parallel_in=3)
    with pytest.raises(ValueError):
        matvec_cols(np.ones((2, 6)), np.ones((6, 1)), p=p)
    with pytest.raises(ValueError):
        matvec(np.ones((2, 6)), np.ones(6), p=p)


def test_reduction_order_is_observable_under_saturation():
    """Saturation makes evaluation order visible; pin all three variants.

    With 0 fractional bits and raws clipped to [-128, 127], the partials
    [100, 100, -100, -100] give three different answers depending on order:
    tree      (100+100) + (-100-100) -> 127 + (-128) = -1
    sequential ((100+100)-100)-100   -> (127-100)-100 = -73
    exact      0
    """
    fmt = FxFormat(total_bits=8, int_bits=8)
    m = FixedMode(fmt)
    vals = np.array([100, 100, -100, -100], dtype=np.int64)
    assert one_row(vals, 4, mode=m) == -1
    assert one_row(vals, 1, mode=m) == -73
    assert int(vals.sum()) == 0


pow2_lengths = st.sampled_from([1, 2, 4, 8, 16, 32])


@settings(max_examples=200)
@given(pow2_lengths, st.data())
def test_tree_matvec_matches_tree_oracle_bitwise(n, data):
    vals = data.draw(
        st.lists(
            st.floats(-1e18, 1e18, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    got = one_row(np.array(vals, dtype=np.float64), n)
    want = tree_sum([float(v) for v in vals], lambda a, b: a + b)
    assert got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=100)
@given(pow2_lengths, st.data())
def test_tree_matvec_fixed_matches_tree_oracle(n, data):
    vals = data.draw(
        st.lists(st.integers(FX27_8.raw_min, FX27_8.raw_max), min_size=n, max_size=n)
    )
    add, _, _ = fixed_ops(FX27_8)
    got = one_row(np.array(vals, dtype=np.int64), n, mode=FixedMode())
    assert got == tree_sum(vals, add)


def test_tree_matvec_permutation_invariant_for_ints():
    rng = np.random.default_rng(5)
    vals = rng.integers(-1000, 1000, 101).astype(np.float64)
    assert one_row(vals, 128) == one_row(np.flip(vals).copy(), 128) == vals.sum()


# ---------------------------------------------------------------------------
# one-row matvec: a single dot product


def test_one_row_matvec_examples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert matvec(np.ones((1, 4)), x, p=ParallelismParams(1, 2))[0] == 10.0
    assert matvec(np.zeros((1, 4)), x)[0] == 0.0


@pytest.mark.parametrize("p_in", [1, 2, 4, 8])
def test_one_row_matvec_integer_exact_across_p(p_in):
    rng = np.random.default_rng(9)
    x = rng.integers(-50, 50, 37).astype(np.float64)
    w = rng.integers(-50, 50, 37).astype(np.float64)
    assert matvec(w[None, :], x, p=ParallelismParams(1, p_in))[0] == float(np.dot(x, w))


# ---------------------------------------------------------------------------
# matvec vs the scalar simulation, both modes


def test_matvec_identity_and_bias():
    W = np.eye(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(matvec(W, x), x)
    out = matvec(np.ones((2, 3)), x, bias=np.array([1.0, -1.0]))
    assert np.array_equal(out, np.array([7.0, 5.0]))


@pytest.mark.parametrize("p", P_COMBOS)
def test_matvec_integer_exact_all_parallelisms(p):
    rng = np.random.default_rng(11)
    W = rng.integers(-20, 20, (16, 16)).astype(np.float64)
    x = rng.integers(-20, 20, 16).astype(np.float64)
    b = rng.integers(-20, 20, 16).astype(np.float64)
    assert np.array_equal(matvec(W, x, bias=b, p=p), W @ x + b)


# N reaches past numpy's 8-element pairwise-summation threshold in the
# chunk count, and M = 1 with p_in = 1 leaves one element per chunk slab.
@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 40),
    st.integers(0, 3),
    st.integers(1, 8),
    st.integers(0, 10_000),
    st.booleans(),
)
@example(M=1, N=9, p_pow=0, p_out=1, seed=0, with_bias=False)
@example(M=1, N=40, p_pow=0, p_out=1, seed=1, with_bias=True)
def test_matvec_real_matches_scalar_sim_bitwise(M, N, p_pow, p_out, seed, with_bias):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-3, 3, (M, N)) * 10.0 ** rng.integers(-6, 7, (M, N))
    x = rng.uniform(-3, 3, N)
    b = rng.uniform(-3, 3, M) if with_bias else None
    p = ParallelismParams(p_out, 2**p_pow)
    got = matvec(W, x, bias=b, p=p)
    add, mul, zero = real_ops()
    want = scalar_matvec(W.tolist(), x.tolist(), None if b is None else b.tolist(), p, add, mul, zero)
    assert got.tolist() == want
    assert matvec(input_major(W), x, bias=b, p=p).tolist() == want


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 40),
    st.integers(0, 3),
    st.integers(1, 8),
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from([FX27_8, FX16_3]),
    st.integers(0, 16),
)
@example(M=1, N=9, p_pow=0, p_out=1, seed=0, with_bias=False, fmt=FX27_8, shrink=0)
def test_matvec_fixed_matches_scalar_sim_bitwise(M, N, p_pow, p_out, seed, with_bias, fmt, shrink):
    # raws span +-raw_max >> shrink: full range saturates products and sums
    # often, mid ranges straddle the no-saturation shortcut, small ones take it
    rng = np.random.default_rng(seed)
    hi = max(fmt.raw_max >> shrink, 1)
    W = rng.integers(-hi, hi + 1, (M, N))
    x = rng.integers(-hi, hi + 1, N)
    b = rng.integers(fmt.raw_min, fmt.raw_max + 1, M) if with_bias else None
    p = ParallelismParams(p_out, 2**p_pow)
    mode = FixedMode(fmt)
    got = matvec(W, x, bias=b, p=p, mode=mode)
    add, mul, zero = fixed_ops(fmt)
    want = scalar_matvec(
        W.tolist(), x.tolist(), None if b is None else b.tolist(), p, add, mul, zero
    )
    assert got.tolist() == want
    assert matvec(input_major(W), x, bias=b, p=p, mode=mode).tolist() == want


def test_matvec_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones((2, 3)), np.ones(4))
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones(3), np.ones(3))
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones((2, 3)), np.ones(3), bias=np.ones(3))
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones((2, 0)), np.ones(0))


def test_matvec_fixed_rejects_float_input():
    with pytest.raises(TypeError):
        matvec(np.ones((2, 2)), np.ones(2), mode=FixedMode())


# ---------------------------------------------------------------------------
# batched columns


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.integers(1, 7), st.integers(0, 10_000))
def test_matvec_cols_equals_per_column_matvec(M, N, T, seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-2, 2, (M, N))
    X = rng.uniform(-2, 2, (N, T))
    b = rng.uniform(-2, 2, M)
    for p in (ParallelismParams(1, 1), ParallelismParams(8, 4), ParallelismParams(3, 2)):
        got = matvec_cols(W, X, bias=b, p=p)
        assert got.shape == (M, T)
        assert np.array_equal(matvec_cols(input_major(W), X, bias=b, p=p), got)
        # a history-shaped batch: X given as the transpose of (T, N) rows
        assert np.array_equal(matvec_cols(W, X.T.copy().T, bias=b, p=p), got)
        for t in range(T):
            assert np.array_equal(got[:, t], matvec(W, X[:, t].copy(), bias=b, p=p))


def test_matvec_cols_fixed_equals_per_column():
    rng = np.random.default_rng(3)
    for fmt, shrink in product((FX27_8, FX16_3), (0, 6, 12)):
        hi = fmt.raw_max >> shrink
        W = rng.integers(-hi, hi + 1, (4, 37))
        X = rng.integers(-hi, hi + 1, (37, 5))
        b = rng.integers(-hi, hi + 1, 4)
        m = FixedMode(fmt)
        got = matvec_cols(W, X, bias=b, mode=m)
        assert np.array_equal(matvec_cols(input_major(W), X, bias=b, mode=m), got)
        for t in range(5):
            assert np.array_equal(got[:, t], matvec(W, X[:, t].copy(), bias=b, mode=m))


def test_matvec_cols_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        matvec_cols(np.ones((2, 3)), np.ones((4, 5)))
    with pytest.raises(ShapeMismatchError):
        matvec_cols(np.ones((2, 3)), np.ones(3))


# ---------------------------------------------------------------------------
# statistics


def test_opstats_counting():
    stats = OpStats()
    W = np.ones((3, 4))
    matvec(W, np.ones(4), stats=stats)
    assert stats.matvec_calls == 1
    assert stats.mac_ops == 12
    matvec_cols(W, np.ones((4, 5)), stats=stats)
    assert stats.matvec_calls == 6
    assert stats.mac_ops == 12 * 6


# ---------------------------------------------------------------------------
# cost model


def test_estimate_cycles_reference_point():
    est = estimate_cycles(128, 128, ParallelismParams(8, 4))
    assert est.estimated_cycles == 560
    assert est.mac_count == 128 * 128
    assert est.weight_buffer_elems == 8 * 128


def test_estimate_cycles_serial_engine():
    # one MAC per cycle plus the (empty) tree and writeback stages
    est = estimate_cycles(4, 6, ParallelismParams(1, 1))
    assert est.estimated_cycles == 4 * (6 + 0 + 1)
    assert est.mac_count == 24
    assert est.weight_buffer_elems == 6


@given(
    st.integers(1, 300),
    st.integers(1, 300),
    st.integers(1, 16),
    st.integers(0, 5),
)
def test_estimate_cycles_formula(M, N, p_out, pi_pow):
    p_in = 2**pi_pow
    est = estimate_cycles(M, N, ParallelismParams(p_out, p_in))
    want = math.ceil(M / p_out) * (math.ceil(N / p_in) + int(math.log2(p_in)) + 1)
    assert est.estimated_cycles == want
    assert est.mac_count == M * N
    assert est.weight_buffer_elems == p_out * N


def test_estimate_cycles_rejects_bad_dims():
    with pytest.raises(ValueError):
        estimate_cycles(0, 4, ParallelismParams(1, 1))
    with pytest.raises(ValueError):
        estimate_cycles(4, 0, ParallelismParams(1, 1))


def test_parallelism_params_validation():
    with pytest.raises(ValueError):
        ParallelismParams(0, 1)
    with pytest.raises(ValueError):
        ParallelismParams(1, 0)
    with pytest.raises(ValueError):
        ParallelismParams(1, 3)  # inner parallelism must be a power of two
    ParallelismParams(3, 4)  # outer parallelism is unrestricted
