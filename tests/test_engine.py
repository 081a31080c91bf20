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
    DEFAULT_PARALLELISM,
    FX27_8,
    FixedMode,
    FxFormat,
    FxValue,
    ParallelismParams,
    RealMode,
    ShapeMismatchError,
    estimate_cycles,
    fx_add,
    fx_mul,
    matvec,
    matvec_cols,
    mul_raw,
)
from qwavenet.engine import _lower

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


def test_estimate_cycles_rejects_lane_count_not_power_of_two():
    # it used to price a 3-lane tree at 16 cycles that no matvec could run
    p = SimpleNamespace(num_parallel_out=1, num_parallel_in=3)
    with pytest.raises(ValueError, match="power of two"):
        estimate_cycles(4, 6, p)


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
    assert matvec(_lower(W, p.num_parallel_in, RealMode(), b), x, p=p).tolist() == want


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
    # often, mid ranges straddle the static row bound (S_max·m >> f) + N that
    # picks the exact sum over the lane-sum test, small ones fit inside it
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
    assert matvec(_lower(W, p.num_parallel_in, mode, b), x, p=p, mode=mode).tolist() == want


def test_matvec_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones((2, 3)), np.ones(4))
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones(3), np.ones(3))
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones((2, 3)), np.ones(3), bias=np.ones(3))
    with pytest.raises(ShapeMismatchError):
        matvec(np.ones((2, 0)), np.ones(0))


def test_matvec_refuses_a_column_batch():
    # a (N, 1) batch is matvec_cols' operand; matvec takes one vector
    with pytest.raises(ShapeMismatchError, match=r"expected 1-D input vector, got shape \(3, 1\)"):
        matvec(np.ones((2, 3)), np.ones((3, 1)))


def test_matvec_fixed_rejects_float_input():
    with pytest.raises(TypeError):
        matvec(np.ones((2, 2)), np.ones(2), mode=FixedMode())


def test_matvec_fixed_refuses_integers_past_int64():
    """2**64 - 1 as uint64 would cast to raw -1, inside the format."""
    m = FixedMode()
    for x in (np.array([2**64 - 1], np.uint64), [2**64 - 1]):
        with pytest.raises(ValueError):
            matvec(np.array([[1 << 19]]), x, mode=m)
    with pytest.raises(ValueError):
        matvec_cols(np.array([[2**64 - 1]], np.uint64), np.array([[1]]), mode=m)
    assert matvec(np.array([[1 << 19]]), np.array([5], np.uint64), mode=m).tolist() == [5]


def test_matvec_fixed_refuses_raws_outside_the_format():
    """The int64 product 2**80 wraps to 0 and the clip would hide it; the
    scalar ``FxValue`` oracle refuses such raws, and so does the engine."""
    m = FixedMode()
    lo, hi = FX27_8.raw_min, FX27_8.raw_max
    with pytest.raises(ValueError):
        matvec(np.array([[2**40]]), np.array([2**40]), mode=m)
    with pytest.raises(ValueError):
        matvec(np.array([[1, 1]]), np.array([1, hi + 1]), mode=m)
    with pytest.raises(ValueError):
        matvec_cols(np.array([[1]]), np.array([[1, lo - 1]]), mode=m)
    with pytest.raises(ValueError):
        _lower(np.array([[lo - 1]]), 1, m)
    lowered = _lower(np.array([[hi, lo]]), 1, m)
    with pytest.raises(ValueError):
        matvec(lowered, np.array([1, hi + 1]), p=ParallelismParams(1, 1), mode=m)
    with pytest.raises(ValueError):
        mul_raw(np.array([2**40]), np.array([1]), FX27_8)
    # a bias raw outside the format would wrap in the int64 bias add
    with pytest.raises(ValueError):
        matvec(np.array([[2**19]]), np.array([2**19]), bias=np.array([2**63 - 1]), mode=m)
    with pytest.raises(ValueError):
        matvec_cols(np.array([[1]]), np.array([[1]]), bias=np.array([lo - 1]), mode=m)
    # the format's own extremes are in range
    assert matvec(lowered, np.array([lo, hi]), p=ParallelismParams(1, 1), mode=m).tolist() == [lo]
    assert matvec(np.array([[1]]), np.array([1]), bias=np.array([hi]), mode=m).tolist() == [hi]


def test_lowered_matrix_refuses_another_mode_or_lane_count():
    W = np.ones((2, 8))
    lowered = _lower(W, 4, RealMode())
    assert matvec(lowered, np.ones(8)).tolist() == [8.0, 8.0]
    with pytest.raises(ValueError):
        matvec(lowered, np.ones(8), p=ParallelismParams(8, 2))
    with pytest.raises(ValueError):
        matvec(lowered, np.ones(8, dtype=np.int64), mode=FixedMode())
    with pytest.raises(ValueError):
        matvec(_lower(W.astype(np.int64), 4, FixedMode(FX16_3)), np.ones(8, np.int64), mode=FixedMode())


def test_lowered_matrix_refuses_another_bias():
    """A lowered matrix carries its bias; a second one would be ambiguous."""
    W, b = np.ones((2, 4)), np.ones(2)
    for lowered in (_lower(W, 4, RealMode()), _lower(W, 4, RealMode(), b)):
        with pytest.raises(ValueError, match="bias"):
            matvec(lowered, np.ones(4), bias=b)
        with pytest.raises(ValueError, match="bias"):
            matvec_cols(lowered, np.ones((4, 3)), bias=b)
    assert matvec(_lower(W, 4, RealMode(), b), np.ones(4)).tolist() == [5.0, 5.0]


def test_lower_checks_the_bias_once():
    """The bias is coerced, shape-checked and range-checked when lowered."""
    m = FixedMode()
    lo, hi = FX27_8.raw_min, FX27_8.raw_max
    W = np.array([[1, 1]])
    for bad in (hi + 1, lo - 1, 2**63 - 1):
        with pytest.raises(ValueError, match="out of range"):
            _lower(W, 1, m, np.array([bad]))
    with pytest.raises(ShapeMismatchError):
        _lower(W, 1, m, np.array([1, 2]))
    with pytest.raises(TypeError):
        _lower(W, 1, m, np.array([0.5]))
    lowered = _lower(W, 1, m, np.array([lo]))
    out = matvec(lowered, np.zeros(2, np.int64), p=ParallelismParams(1, 1), mode=m)
    assert out.tolist() == [lo]


@pytest.mark.parametrize("mode", [RealMode(), FixedMode(FX16_3)], ids=str)
def test_matrix_lowered_with_its_bias_matches_plain_matvec(mode):
    """The session's FC path: a matrix lowered once with its bias gives the
    bits of the plain matvec with that bias, column by column.  Values span
    +-4, so in fixed<16,3> the products, sums and bias add saturate."""
    rng = np.random.default_rng(5)
    shapes = ((1, 1), (7, 37), (16, 128))
    for (M, N), p in product(shapes, (ParallelismParams(1, 1), ParallelismParams(8, 4))):
        W, X, b = (mode.from_real(rng.uniform(-4, 4, s)) for s in ((M, N), (N, 6), M))
        lowered = _lower(W, p.num_parallel_in, mode, b)
        want = matvec_cols(W, X, bias=b, p=p, mode=mode)
        assert np.array_equal(matvec_cols(lowered, X, p=p, mode=mode), want)
        for t in range(X.shape[1]):
            assert np.array_equal(matvec(lowered, X[:, t], p=p, mode=mode), want[:, t])


def rows_with_abs_sums(rng, sums, n, cap):
    """One row of ``n`` random-signed raws per entry of ``sums``, whose
    magnitudes add up to it, each at most ``cap``."""
    rows = []
    for s in sums:
        w = np.full(n, s // n)
        w[: s % n] += 1
        for _ in range(2 * n):  # moves between entries keep the sum
            i, j = rng.integers(n, size=2)
            d = int(rng.integers(0, min(w[i], cap - w[j]) + 1))
            w[i] -= d
            w[j] += d
        rows.append(w * rng.choice([-1, 1], n))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([FX27_8, FX16_3]),
    st.integers(1, 5),
    st.integers(8, 40),
    st.integers(0, 3),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([1, 3]),
    st.booleans(),
    st.integers(0, 10_000),
)
@example(fmt=FX16_3, M=3, N=8, p_pow=0, step=1, over=3, aligned=True, seed=0)
@example(fmt=FX16_3, M=3, N=8, p_pow=2, step=1, over=1, aligned=False, seed=0)
@example(fmt=FX27_8, M=3, N=8, p_pow=2, step=1, over=1, aligned=False, seed=0)
def test_static_bound_edges_match_scalar_oracle(fmt, M, N, p_pow, step, over, aligned, seed):
    """Inputs scaled so the static row bound (S_max·m >> f) + N lands one step
    inside raw_max, on it, one step outside it, or at three times it.  At
    three times, hot rows that reach S_max meet an input aligned with their
    signs and saturate, while cold rows with a quarter of S_max do not.  One
    step outside, every row's sum of |rounded products| still fits raw_max
    (each is at most |W_raw|·m/2^f + 1/2, and N >= 2), yet the bound sends
    the matvec through the lane-sum test and the tree.
    Plain, input-major and lowered W must all match the ``FxValue`` oracle."""
    rng = np.random.default_rng(seed)
    f = fmt.frac_bits
    m = int(rng.integers(1 << (f - 1), (1 << f) + 1))  # largest |x_raw|, tanh range
    target = over * (fmt.raw_max + step)
    s_max = -(-((target - N) << f) // m)  # the least S_max whose bound is target
    cold = s_max // 4 if over > 1 else s_max
    sums = [s_max] + [int(v) for v in rng.integers(0, cold + 1, M - 1)]
    W = rows_with_abs_sums(rng, rng.permutation(sums), N, fmt.raw_max)
    hot = int(np.argmax(np.abs(W).sum(axis=1)))
    if aligned:
        x = np.where(W[hot] < 0, -m, m)
    else:
        x = rng.integers(-m, m + 1, N)
        x[rng.integers(N)] = m * rng.choice([-1, 1])
    p = ParallelismParams(1, 2**p_pow)
    mode = FixedMode(fmt)
    lowered = _lower(W, p.num_parallel_in, mode)
    assert mode.row_bound(lowered, m) == target

    add, mul, zero = fixed_ops(fmt)
    want = scalar_matvec(W.tolist(), x.tolist(), None, p, add, mul, zero)
    products = [[mul(w, v) for w, v in zip(row, x.tolist())] for row in W.tolist()]
    if over == 1:
        assert all(sum(map(abs, row)) <= fmt.raw_max for row in products)
    if over > 1 and aligned:
        exact = [sum(row) for row in products]
        assert abs(exact[hot]) > fmt.raw_max
        assert all(abs(e) <= fmt.raw_max for r, e in enumerate(exact) if r != hot)
    assert matvec(W, x, p=p, mode=mode).tolist() == want
    assert matvec(input_major(W), x, p=p, mode=mode).tolist() == want
    assert matvec(lowered, x, p=p, mode=mode).tolist() == want
    X = np.stack([x, -x, x // 3], axis=1)
    cols = matvec_cols(lowered, X, p=p, mode=mode)
    assert np.array_equal(cols, matvec_cols(W, X, p=p, mode=mode))
    assert cols[:, 0].tolist() == want


# ---------------------------------------------------------------------------
# lane sums on the fold path

FX10_1 = FxFormat(10, 1)
FX8_8 = FxFormat(8, 8)


def lane_edge_operands(rng, fmt, p_in, M, step, side=None, edge_first=False):
    """(W, x) whose rounded products put one side of every lane ``step`` past
    the format's edge: the lane's positive sum is raw_max + step (``side``
    1) or its negative sum raw_min - step (``side`` -1; None draws a side per
    lane), while its other side stays inside.  x is +-m with m = 2^(f-1)
    (1 when f = 0), so each product is W/2 (W when f = 0) and no product
    saturates.  Each lane holds three edge products and two of the other
    sign, in random order, or with the edge products first, so that the
    fold's third partial is the edge sum itself."""
    f = fmt.frac_bits
    m, gain = (1 << (f - 1), 2) if f else (1, 1)
    cap = fmt.raw_max // gain
    products = np.zeros((M, 5 * p_in), dtype=np.int64)
    for r, lane in product(range(M), range(p_in)):
        sign = int(rng.choice([-1, 1])) if side is None else side
        target = fmt.raw_max + step if sign > 0 else step - fmt.raw_min
        edge = np.abs(rows_with_abs_sums(rng, [target], 3, cap)[0])
        other = np.abs(rows_with_abs_sums(rng, [int(rng.integers(0, fmt.raw_max))], 2, cap)[0])
        vals = np.concatenate([sign * edge, -sign * other])
        products[r, lane::p_in] = vals if edge_first else rng.permutation(vals)
    signs = rng.choice([-1, 1], products.shape[1])
    return products * signs * gain, signs * m


def clipped_lane_operands(rng, fmt, p_in, M, edge_first):
    """(W, x) whose every lane holds one product that clips, raw_min times
    raw_min saturating to raw_max, and four products of the other sign whose
    sum is raw_min: both lane sums sit on the format's edge, so no fold
    partial clips once the products are clipped, while the unclipped product
    would move the sum.  The clipping product comes first in each lane, or
    at a random place."""
    f = fmt.frac_bits
    m, gain = (1 << (f - 1), 2) if f else (1, 1)
    W = np.zeros((M, 5 * p_in), dtype=np.int64)
    x = np.zeros(5 * p_in, dtype=np.int64)
    for lane in range(p_in):
        cols = np.arange(lane, 5 * p_in, p_in)
        clip, rest = (cols[0], cols[1:]) if edge_first else np.split(rng.permutation(cols), [1])
        x[clip] = fmt.raw_min
        x[rest] = rng.choice([-1, 1], 4) * m
        W[:, clip] = fmt.raw_min
        other = np.abs(rows_with_abs_sums(rng, [-fmt.raw_min] * M, 4, fmt.raw_max // gain))
        W[:, rest] = -other * np.sign(x[rest]) * gain
    return W, x


def lane_excess(W, x, fmt, p_in):
    """How far the worst lane's positive or negative product sum passes the
    format's edge, over every row, from the ``FxValue`` products."""
    _, mul, _ = fixed_ops(fmt)
    worst = -math.inf
    for row in W.tolist():
        prods = [mul(w, v) for w, v in zip(row, x.tolist())]
        for lane in range(p_in):
            vals = prods[lane::p_in]
            pos = sum(v for v in vals if v > 0)
            neg = sum(v for v in vals if v < 0)
            worst = max(worst, pos - fmt.raw_max, fmt.raw_min - neg)
    return worst


@pytest.mark.parametrize(
    "step", [-1, 0, 1, "clipped"], ids=["inside", "on", "outside", "clipped"]
)
@pytest.mark.parametrize("p_in", [1, 2, 4, 8])
@pytest.mark.parametrize("fmt", [FX16_3, FX10_1, FX8_8], ids=str)
def test_lane_sum_edges_match_scalar_oracle(fmt, p_in, step):
    """Row bounds that fail, with every lane's positive or negative product
    sum one step inside the format, on its edge, or one step outside.  Inside
    and on, no fold partial can clip and the lane sums are the result;
    outside, the clipped fold runs, and with the edge products first it
    clips.  "clipped" puts a product that clips in every lane while both
    lane sums stay on the edge: the products are clipped and folded, and no
    partial clips.  Plain and lowered W must match the ``FxValue`` oracle
    every way."""
    p = ParallelismParams(1, p_in)
    mode = FixedMode(fmt)
    add, mul, zero = fixed_ops(fmt)
    if step == "clipped":
        rng = np.random.default_rng(p_in)
        cases = [clipped_lane_operands(rng, fmt, p_in, 3, first) for first in (True, False)]
        path = "clipped lanes"
    else:
        rng = np.random.default_rng(1000 * p_in + step)
        cases = [
            lane_edge_operands(rng, fmt, p_in, 3, step, side, edge_first)
            for side, edge_first in product((1, -1, None), (True, False))
        ]
        path = "fold" if step > 0 else "lanes"
    for W, x in cases:
        assert lane_excess(W, x, fmt, p_in) == (0 if step == "clipped" else step)
        assert datapath_taken(fmt, W, x[:, None], p_in) == path
        lowered = _lower(W, p_in, mode)
        want = scalar_matvec(W.tolist(), x.tolist(), None, p, add, mul, zero)
        assert matvec(W, x, p=p, mode=mode).tolist() == want
        assert matvec(lowered, x, p=p, mode=mode).tolist() == want


def test_lane_sums_pinned_examples():
    """fixed<8,8> on one lane, raws clipped to [-128, 127].  The positive sum
    of [-100, 100, -100, 100] leaves the range, so the fold runs, but no
    prefix clips: 0.  [100, 100, -100, -100] clips at its second add: -73.
    [100, -100] times 2 saturates both products, to 127 and -128, and
    neither sum leaves the range: -1."""
    m = FixedMode(FX8_8)
    assert one_row(np.array([-100, 100, -100, 100]), 1, mode=m) == 0
    assert one_row(np.array([100, 100, -100, -100]), 1, mode=m) == -73
    p = ParallelismParams(1, 1)
    assert matvec(np.array([[100, -100]]), np.array([2, 2]), p=p, mode=m).tolist() == [-1]


def test_empty_operands_past_the_row_bound():
    """No rows, or no columns: with N = 200 > raw_max the row bound fails
    even at m = 0, and the lane-sum test sees empty sums."""
    m = FixedMode(FX8_8)
    ones = np.ones((200, 2), dtype=np.int64)
    assert matvec_cols(np.zeros((0, 200), np.int64), ones, mode=m).shape == (0, 2)
    assert matvec_cols(ones.T, ones[:, :0], mode=m).shape == (2, 0)


@pytest.mark.parametrize("p_in", [1, 2, 4, 8])
@pytest.mark.parametrize("fmt", [FX16_3, FX10_1, FX8_8], ids=str)
def test_matvec_cols_with_one_clipping_column_equals_per_column(fmt, p_in):
    """Column 0's lanes all fit; column 1, its input doubled, has lanes that
    do not, so the batched call takes the clipped fold for both columns.
    Each column must still equal its own matvec and the ``FxValue`` oracle."""
    rng = np.random.default_rng(p_in)
    W, x = lane_edge_operands(rng, fmt, p_in, 3, -1)
    X = np.stack([x, np.clip(2 * x, fmt.raw_min, fmt.raw_max)], axis=1)
    assert lane_excess(W, X[:, 0], fmt, p_in) < 0 < lane_excess(W, X[:, 1], fmt, p_in)
    p = ParallelismParams(1, p_in)
    mode = FixedMode(fmt)
    add, mul, zero = fixed_ops(fmt)
    cols = matvec_cols(W, X, p=p, mode=mode)
    for t in range(2):
        want = scalar_matvec(W.tolist(), X[:, t].tolist(), None, p, add, mul, zero)
        assert matvec(W, X[:, t], p=p, mode=mode).tolist() == want
        assert cols[:, t].tolist() == want


# ---------------------------------------------------------------------------
# the widest formats on every path

FX27_1 = FxFormat(27, 1)
FX27_27 = FxFormat(27, 27)
DATAPATHS = ["shortcut", "lanes", "fold", "clipped lanes", "clipped fold"]


def datapath_operands(fmt, path, cols, rng):
    """(W, X) of 3 rows and 8 inputs on 2 lanes that take ``path`` through
    ``FixedMode.mac``.  Free inputs are 0 or +-h, h = 2^(f-1), so that odd
    weights make rounding ties (column 0 pins ties of both signs and a zero
    input on every path); the weights by the fixed inputs are raw_min
    and raw_max, or, where f = 0 forbids them, 100 inside.  The unclipped
    paths keep every |x_raw| at most h; on the clipped ones x_raw = raw_min
    meets W_raw = raw_min, a product of 2^52."""
    f = fmt.frac_bits
    lo, hi = fmt.raw_min, fmt.raw_max
    h = 1 << (f - 1) if f else 1
    if not f:
        lo, hi = lo + 100, hi - 100
    X = rng.choice([-h, 0, h], (8, cols))
    X[:, 0] = [h, -h, h, h, -h, h, 0, -h]
    if path == "shortcut":
        W = [[lo, 0, 3, -5, 7, 0, -9, 11], [hi, -1, 0, 1, -3, 5, 0, 0]]
    elif path in ("lanes", "fold"):
        # each lane holds one lo and one hi weight: x of one sign on both
        # cancels their products, x of opposite signs adds them past the edge
        W = [[lo, hi, hi, lo, 0, 3, -5, 0], [0, 3, -5, 7, 0, 0, 0, 1]]
        s = np.concatenate([[1], rng.choice([-1, 1], cols - 1)]) if path == "lanes" else -1
        X[:4] = s * h
        if path == "fold":
            X[2] = h
    else:
        lo, hi = fmt.raw_min, fmt.raw_max
        third = hi if path == "clipped fold" else 0
        W = [[lo, 3, third, -5, 0, 7, 0, -9], [hi, 0, 0, 0, 0, 0, 0, 0]]
        X[0] = rng.choice([lo, hi], cols)
        X[0, 0] = lo
        if path == "clipped fold":
            X[2] = hi
    return np.array(W + [[0] * 8], dtype=np.int64), X


def datapath_taken(fmt, W, X, p_in):
    """The path ``FixedMode.mac`` must take, from the row bound, the largest
    rounded product and the ``FxValue`` lane sums."""
    mode = FixedMode(fmt)
    m = int(np.abs(X).max())
    if mode.row_bound(_lower(W, p_in, mode), m) <= fmt.raw_max:
        return "shortcut"
    largest = (int(np.abs(W).max()) * m + (1 << fmt.frac_bits >> 1)) >> fmt.frac_bits
    clipped = "" if largest <= fmt.raw_max else "clipped "
    lanes = all(lane_excess(W, X[:, t], fmt, p_in) <= 0 for t in range(X.shape[1]))
    return clipped + ("lanes" if lanes else "fold")


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("path", DATAPATHS)
@pytest.mark.parametrize("fmt", [FX27_1, FX27_8, FX27_27], ids=str)
def test_widest_formats_match_scalar_oracle_on_every_path(fmt, path, cols):
    """f = 26, 19 and 0 at 27 bits, where raw products reach 2^52: each path
    of the float64 datapath, at one column and at several, must match the
    ``FxValue`` oracle with rounding ties of both signs, zeros in W and x,
    and, where the path allows them, raw_min and raw_max."""
    rng = np.random.default_rng(DATAPATHS.index(path) + 10 * cols + fmt.frac_bits)
    W, X = datapath_operands(fmt, path, cols, rng)
    p = ParallelismParams(1, 2)
    assert datapath_taken(fmt, W, X, p.num_parallel_in) == path
    f = fmt.frac_bits
    pairs = [(int(w), int(x)) for row in W for w, x in zip(row, X[:, 0])]
    assert (W == 0).any() and (X[:, 0] == 0).any()
    if f:
        half = 1 << (f - 1)
        ties = {np.sign(w * x) for w, x in pairs if abs(w * x) % (1 << f) == half}
        assert ties == {-1, 1}
    if f or path.startswith("clipped"):
        assert {fmt.raw_min, fmt.raw_max} <= set(W.ravel().tolist()) | set(X.ravel().tolist())
    if path.startswith("clipped"):
        assert max(abs(w * x) for w, x in pairs) == 2**52
    mode = FixedMode(fmt)
    add, mul, zero = fixed_ops(fmt)
    got = matvec_cols(W, X, p=p, mode=mode)
    assert np.array_equal(matvec_cols(_lower(W, 2, mode), X, p=p, mode=mode), got)
    for t in range(cols):
        want = scalar_matvec(W.tolist(), X[:, t].tolist(), None, p, add, mul, zero)
        assert got[:, t].tolist() == want
        assert matvec(W, X[:, t], p=p, mode=mode).tolist() == want


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


@pytest.mark.parametrize("M, N", [(2.5, 128), (128, 4.0), (True, True), (np.int64(8), 4), ("8", 4)])
def test_estimate_cycles_takes_int_dims_only(M, N):
    # (2.5, 128) would give mac_count 320.0, and (True, True) mac_count 1
    with pytest.raises(TypeError, match="must be ints"):
        estimate_cycles(M, N, DEFAULT_PARALLELISM)


def test_parallelism_params_validation():
    with pytest.raises(ValueError):
        ParallelismParams(0, 1)
    with pytest.raises(ValueError):
        ParallelismParams(1, 0)
    with pytest.raises(ValueError):
        ParallelismParams(1, 3)  # inner parallelism must be a power of two
    ParallelismParams(3, 4)  # outer parallelism is unrestricted


@pytest.mark.parametrize(
    "p_out, p_in", [(2.5, 4), (8, 4.0), (True, True), (8, True), (np.int64(8), 4), (8, "4")]
)
def test_parallelism_params_take_ints_only(p_out, p_in):
    # as FxFormat's widths: a float degree would give fractional cycle counts
    # and buffer sizes, and a bool would pass for 1
    with pytest.raises(TypeError, match="must be ints"):
        ParallelismParams(p_out, p_in)
