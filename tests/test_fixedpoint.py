"""Saturating fixed-point arithmetic against exact rational oracles.

The scalar ``FxValue`` path works on Python integers and ``Fraction`` values,
so every scalar result here is checked against independently computed exact
arithmetic.  The vectorized raw-array helpers are then required to agree with
the scalar path bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwavenet import (
    FX27_8,
    FixedMode,
    FormatMismatchError,
    FxFormat,
    FxValue,
    add_raw,
    fx_add,
    fx_mul,
    fx_tanh,
    mul_raw,
    parse_format,
    parse_mode,
    quantize_real,
    raw_to_real,
    tanh_raw,
    to_fixed,
    to_real,
)

FMT8 = FxFormat(total_bits=8, int_bits=3)  # frac_bits=5, raws in [-128, 127]


def round_half_away(x: Fraction) -> int:
    """Reference rounding rule: nearest integer, ties away from zero."""
    n = math.floor(x)
    rem = x - n
    if rem > Fraction(1, 2):
        return n + 1
    if rem == Fraction(1, 2):
        return n + 1 if x > 0 else n
    return n


def ref_round(x: Fraction) -> int:
    """Independent second formulation: sign(x) * floor(|x| + 1/2)."""
    s = -1 if x < 0 else 1
    return s * math.floor(abs(x) + Fraction(1, 2))


def clamp(raw: int, fmt: FxFormat) -> int:
    """Reference saturation on Python integers."""
    return min(max(raw, fmt.raw_min), fmt.raw_max)


def raws(fmt):
    return st.integers(fmt.raw_min, fmt.raw_max)


# ---------------------------------------------------------------------------
# format bookkeeping


def test_format_fields():
    assert FX27_8.total_bits == 27
    assert FX27_8.int_bits == 8
    assert FX27_8.frac_bits == 19
    assert FX27_8.raw_min == -(2**26)
    assert FX27_8.raw_max == 2**26 - 1
    assert str(FX27_8) == "fixed<27,8>"


@pytest.mark.parametrize(
    "total, integer",
    [(1, 1), (0, 0), (64, 8), (16, 0), (16, 17), (-4, 2)],
)
def test_format_rejects_bad_widths(total, integer):
    with pytest.raises(ValueError):
        FxFormat(total_bits=total, int_bits=integer)


def test_parse_format():
    assert parse_format("fixed<27,8>") == FX27_8
    assert parse_format("fixed<16, 4>") == FxFormat(16, 4)
    for bad in ("fixed<27>", "float<27,8>", "fixed<a,b>", "", "fixed<27,8> extra"):
        with pytest.raises(ValueError):
            parse_format(bad)


# ---------------------------------------------------------------------------
# scalar conversion: exact rational oracle


def test_to_fixed_known_values():
    assert to_fixed(0.0).raw == 0
    assert to_fixed(0.5).raw == 2**18
    assert to_fixed(1.0).raw == 2**19
    assert to_fixed(-1.0).raw == -(2**19)
    assert to_fixed(2**-19).raw == 1
    # resolution: one raw step is 2**-19
    assert to_real(FxValue(1, FX27_8)) == 2**-19


def test_to_fixed_saturates():
    assert to_fixed(1000.0).raw == FX27_8.raw_max
    assert to_fixed(-1000.0).raw == FX27_8.raw_min
    assert to_fixed(-128.0).raw == FX27_8.raw_min  # exactly representable
    assert to_fixed(float("inf")).raw == FX27_8.raw_max
    assert to_fixed(float("-inf")).raw == FX27_8.raw_min
    assert to_real(to_fixed(1e9)) == pytest.approx(128.0, abs=1e-5)


def test_to_fixed_rejects_nan():
    with pytest.raises(ValueError):
        to_fixed(float("nan"))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 1000, -1, -2, -5, -1000])
def test_to_fixed_ties_round_away_from_zero(k):
    # (k + 0.5) * 2**-19 sits exactly halfway between raws k and k+1
    x = (k + math.copysign(0.5, k if k else 1.0)) * 2.0**-19
    expect = k + 1 if k >= 0 else k - 1
    assert to_fixed(x).raw == expect


@given(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False))
def test_to_fixed_matches_rational_oracle(x):
    got = to_fixed(x).raw
    want = clamp(ref_round(Fraction(x) * 2**19), FX27_8)
    assert got == want
    assert want == clamp(round_half_away(Fraction(x) * 2**19), FX27_8)


@given(st.floats(min_value=-127.9, max_value=127.9, allow_nan=False))
def test_to_fixed_error_within_half_step(x):
    assert abs(to_real(to_fixed(x)) - x) <= 2.0**-20


@given(raws(FX27_8))
def test_raw_real_roundtrip_exact(raw):
    v = FxValue(raw, FX27_8)
    assert to_fixed(to_real(v)).raw == raw


@given(
    st.floats(min_value=-200, max_value=200, allow_nan=False),
    st.floats(min_value=-200, max_value=200, allow_nan=False),
)
def test_to_fixed_monotonic(x, y):
    if x <= y:
        assert to_fixed(x).raw <= to_fixed(y).raw


def test_fxvalue_rejects_out_of_range_raw():
    with pytest.raises(ValueError):
        FxValue(FX27_8.raw_max + 1, FX27_8)
    with pytest.raises(ValueError):
        FxValue(FX27_8.raw_min - 1, FX27_8)


# ---------------------------------------------------------------------------
# scalar arithmetic: exact rational oracle


@given(raws(FX27_8), raws(FX27_8))
def test_fx_add_matches_saturating_integer_sum(a, b):
    got = fx_add(FxValue(a, FX27_8), FxValue(b, FX27_8))
    assert got.raw == clamp(a + b, FX27_8)


@given(raws(FX27_8), raws(FX27_8))
def test_fx_mul_matches_rational_oracle(a, b):
    got = fx_mul(FxValue(a, FX27_8), FxValue(b, FX27_8))
    want = clamp(ref_round(Fraction(a * b, 2**19)), FX27_8)
    assert got.raw == want


@given(raws(FMT8), raws(FMT8))
def test_fx_mul_matches_rational_oracle_narrow(a, b):
    got = fx_mul(FxValue(a, FMT8), FxValue(b, FMT8))
    want = clamp(ref_round(Fraction(a * b, 2**FMT8.frac_bits)), FMT8)
    assert got.raw == want


def test_fx_mul_known_values():
    half = to_fixed(0.5)
    assert to_real(fx_mul(half, half)) == 0.25
    assert to_real(fx_mul(to_fixed(2.0), to_fixed(3.0))) == 6.0
    # saturation: 100 * 100 = 10000 clamps to the top of the range
    sat = fx_mul(to_fixed(100.0), to_fixed(100.0))
    assert sat.raw == FX27_8.raw_max


def test_fx_add_saturates_at_bounds():
    top = FxValue(FX27_8.raw_max, FX27_8)
    assert fx_add(top, to_fixed(1.0)).raw == FX27_8.raw_max
    bot = FxValue(FX27_8.raw_min, FX27_8)
    assert fx_add(bot, to_fixed(-1.0)).raw == FX27_8.raw_min


def test_mixed_formats_rejected():
    with pytest.raises(FormatMismatchError):
        fx_add(to_fixed(1.0, FX27_8), to_fixed(1.0, FMT8))
    with pytest.raises(FormatMismatchError):
        fx_mul(to_fixed(1.0, FX27_8), to_fixed(1.0, FMT8))


@given(raws(FX27_8))
def test_fx_tanh_tracks_float_tanh(raw):
    v = FxValue(raw, FX27_8)
    got = to_real(fx_tanh(v))
    assert abs(got - math.tanh(to_real(v))) <= 2.0**-19
    assert abs(got) <= 1.0


def test_fx_tanh_exact_quantization():
    # tanh result must be the nearest representable value, ties away
    v = to_fixed(0.5)
    want = clamp(ref_round(Fraction(math.tanh(to_real(v))) * 2**19), FX27_8)
    assert fx_tanh(v).raw == want


# ---------------------------------------------------------------------------
# vectorized helpers must agree with the scalar path bit for bit


@settings(max_examples=50)
@given(st.lists(st.floats(-300, 300, allow_nan=False), min_size=1, max_size=40))
def test_quantize_real_matches_scalar(xs):
    arr = np.array(xs, dtype=np.float64)
    got = quantize_real(arr, FX27_8)
    want = np.array([to_fixed(float(x)).raw for x in xs], dtype=np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fmt", [FX27_8, FMT8], ids=str)
def test_quantize_real_rounds_near_halves_exactly(fmt):
    # k + 0.5 - ulp must round down (for k = 0 that is 0.5 - 2**-54, where
    # adding 0.5 in float64 would already give 1.0); exact ties round away
    # from zero; infinities and huge values saturate
    below_half = [np.nextafter(k + 0.5, 0.0) for k in range(4)]
    ties = [k + 0.5 for k in range(4)]
    mags = [m * 2.0**-fmt.frac_bits for m in below_half + ties] + [1e300, np.inf]
    xs = np.array([s * m for m in mags for s in (1.0, -1.0)])
    want = [to_fixed(float(x), fmt).raw for x in xs]
    assert quantize_real(xs, fmt).tolist() == want


def test_quantize_real_rejects_nan():
    with pytest.raises(ValueError):
        quantize_real(np.array([0.0, np.nan]), FX27_8)


@settings(max_examples=50)
@given(
    st.lists(raws(FX27_8), min_size=1, max_size=40),
    st.lists(raws(FX27_8), min_size=1, max_size=40),
)
def test_add_mul_raw_match_scalar(a_list, b_list):
    n = min(len(a_list), len(b_list))
    a = np.array(a_list[:n], dtype=np.int64)
    b = np.array(b_list[:n], dtype=np.int64)
    want_add = [fx_add(FxValue(int(x), FX27_8), FxValue(int(y), FX27_8)).raw for x, y in zip(a, b)]
    want_mul = [fx_mul(FxValue(int(x), FX27_8), FxValue(int(y), FX27_8)).raw for x, y in zip(a, b)]
    assert np.array_equal(add_raw(a.copy(), b, FX27_8), np.array(want_add))
    assert np.array_equal(mul_raw(a, b, FX27_8), np.array(want_mul))


@settings(max_examples=50)
@given(st.lists(raws(FX27_8), min_size=1, max_size=40))
def test_tanh_raw_matches_scalar(a_list):
    a = np.array(a_list, dtype=np.int64)
    got = tanh_raw(a, FX27_8)
    want = [fx_tanh(FxValue(int(x), FX27_8)).raw for x in a]
    assert np.array_equal(got, np.array(want))


@settings(max_examples=50)
@given(st.lists(raws(FMT8), min_size=1, max_size=40), st.lists(raws(FMT8), min_size=1, max_size=40))
def test_mul_raw_narrow_format(a_list, b_list):
    n = min(len(a_list), len(b_list))
    a = np.array(a_list[:n], dtype=np.int64)
    b = np.array(b_list[:n], dtype=np.int64)
    want = [fx_mul(FxValue(int(x), FMT8), FxValue(int(y), FMT8)).raw for x, y in zip(a, b)]
    assert np.array_equal(mul_raw(a, b, FMT8), np.array(want))


def test_raw_to_real_scaling():
    raws_arr = np.array([0, 1, -1, 2**19, FX27_8.raw_max, FX27_8.raw_min])
    out = raw_to_real(raws_arr, FX27_8)
    assert out.dtype == np.float64
    assert np.array_equal(out, raws_arr / 2.0**19)


def test_vector_ops_reject_wide_formats():
    wide = FxFormat(total_bits=40, int_bits=16)
    a = np.array([1, 2], dtype=np.int64)
    with pytest.raises(ValueError):
        mul_raw(a, a, wide)
    # so a numeric mode cannot be built on one
    with pytest.raises(ValueError):
        FixedMode(wide)
    with pytest.raises(ValueError):
        parse_mode("fixed<40,8>")
    FixedMode(FxFormat(total_bits=32, int_bits=8))
    # scalar path has no such limit
    v = to_fixed(100.0, wide)
    assert to_real(fx_mul(v, v)) == pytest.approx(10000.0)
