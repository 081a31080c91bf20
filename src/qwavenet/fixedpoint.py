"""Saturating signed fixed-point arithmetic with a parameterized format.

A value is an integer ``raw`` interpreted as ``raw / 2**frac_bits`` in a
``total_bits``-wide two's-complement word; ``int_bits`` includes the sign.
Numeric rules, chosen once and applied everywhere:

* conversion and multiplication round to nearest, ties away from zero;
* overflow saturates to the format bounds, never wraps;
* tanh is evaluated in double precision on the real value and requantized.

Scalar operations (:class:`FxValue`, ``fx_*``) use Python integers and are
exact for any supported width.  The ``*_raw`` array helpers operate on int64
raw arrays and are limited to ``total_bits <= 32`` so products fit in 64 bits;
that covers the default ``fixed<27,8>`` and everything the inference engine
uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_FORMAT_RE = re.compile(r"^fixed<\s*(\d+)\s*,\s*(\d+)\s*>$")
_VECTOR_MAX_TOTAL_BITS = 32


class FormatMismatchError(ValueError):
    """Binary operation on values of different fixed-point formats."""


@dataclass(frozen=True)
class FxFormat:
    """Bit layout: ``total_bits`` overall, ``int_bits`` integer incl. sign."""

    total_bits: int
    int_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= 63:
            raise ValueError(f"total_bits must be in [2, 63], got {self.total_bits}")
        if not 1 <= self.int_bits <= self.total_bits:
            raise ValueError(
                f"int_bits must be in [1, {self.total_bits}], got {self.int_bits}"
            )

    @property
    def frac_bits(self) -> int:
        return self.total_bits - self.int_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    def __str__(self) -> str:
        return f"fixed<{self.total_bits},{self.int_bits}>"


FX27_8 = FxFormat(27, 8)


def parse_format(text: str) -> FxFormat:
    """Parse a ``"fixed<T,I>"`` format string."""
    m = _FORMAT_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a fixed-point format string: {text!r}")
    return FxFormat(int(m.group(1)), int(m.group(2)))


# ---------------------------------------------------------------------------
# Array helpers (int64 raws).


def _check_vector_format(fmt: FxFormat) -> None:
    if fmt.total_bits > _VECTOR_MAX_TOTAL_BITS:
        raise ValueError(
            f"array fixed-point ops support total_bits <= {_VECTOR_MAX_TOTAL_BITS}, "
            f"got {fmt}"
        )


def _round_half_away_f64(v):
    """Round a float64 array to integral values, ties away from zero.

    floor(|v| + 0.5) would round the sum itself, sending 0.5 - 2**-54 to 1;
    the fraction modf splits off is exact, so compare that with one half.
    Infinities pass through.
    """
    frac, r = np.modf(np.abs(v))
    r += frac >= 0.5
    return np.copysign(r, v)


def quantize_real(x, fmt: FxFormat):
    """Real array -> int64 raws; round half away from zero, then saturate.

    Scaling by ``2**frac_bits`` is a float64 exponent shift, so tie detection
    is exact for every representable input.
    """
    _check_vector_format(fmt)
    v = np.asarray(x, dtype=np.float64) * float(1 << fmt.frac_bits)
    if np.isnan(v).any():
        raise ValueError("cannot quantize NaN")
    r = _round_half_away_f64(v)
    # float-stage clip keeps the int64 cast safe for infinities / huge inputs
    np.clip(r, -(2.0**62), 2.0**62, out=r)
    return _saturate_inplace(r.astype(np.int64), fmt)


def raw_to_real(raw, fmt: FxFormat):
    return np.asarray(raw, dtype=np.float64) / float(1 << fmt.frac_bits)


def _saturate_inplace(arr, fmt: FxFormat):
    np.minimum(arr, fmt.raw_max, out=arr)
    np.maximum(arr, fmt.raw_min, out=arr)
    return arr


def add_raw(a, b, fmt: FxFormat):
    """Saturating add of raw arrays (exact integer add, then clip)."""
    _check_vector_format(fmt)
    s = np.asarray(a, np.int64) + np.asarray(b, np.int64)
    return _saturate_inplace(s, fmt)


def mul_raw(a, b, fmt: FxFormat):
    """Saturating multiply of raw arrays.

    Full int64 product, arithmetic shift by ``frac_bits`` with round to
    nearest ties away from zero, then clip.  Rounding uses the branch-free
    two's-complement identity: adding half-1 instead of half before the
    arithmetic shift when the product is negative (p >> 63 is -1 exactly
    then) lands on round-half-away for both signs.

    The clip is skipped when the operands' largest magnitudes show that no
    rounded product can leave the format range; it would change nothing.
    """
    _check_vector_format(fmt)
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    p = a * b
    f = fmt.frac_bits
    if f:
        offset = p >> 63
        offset += 1 << (f - 1)
        p += offset
        p >>= f
    if (_max_abs(a) * _max_abs(b) + ((1 << f) >> 1)) >> f <= fmt.raw_max:
        return p
    return _saturate_inplace(p, fmt)


def _max_abs(arr) -> int:
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def tanh_raw(a, fmt: FxFormat):
    """tanh of raw arrays: double-precision tanh of the real value, requantized."""
    return quantize_real(np.tanh(raw_to_real(a, fmt)), fmt)


# ---------------------------------------------------------------------------
# Scalar values.


@dataclass(frozen=True)
class FxValue:
    raw: int
    fmt: FxFormat

    def __post_init__(self):
        if not self.fmt.raw_min <= self.raw <= self.fmt.raw_max:
            raise ValueError(
                f"raw {self.raw} out of range for {self.fmt} "
                f"[{self.fmt.raw_min}, {self.fmt.raw_max}]"
            )

    def __float__(self) -> float:
        return to_real(self)


def _round_half_away(value: Fraction) -> int:
    n, d = value.numerator, value.denominator
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    return q if n >= 0 else -q


def to_fixed(x: float, fmt: FxFormat = FX27_8) -> FxValue:
    """Nearest representable value (ties away from zero), saturating.

    Exact: the float is treated as the binary rational it is.
    """
    if np.isnan(x):
        raise ValueError("cannot quantize NaN")
    if np.isinf(x):
        raw = fmt.raw_max if x > 0 else fmt.raw_min
        return FxValue(raw, fmt)
    raw = _round_half_away(Fraction(float(x)) * (1 << fmt.frac_bits))
    return FxValue(min(max(raw, fmt.raw_min), fmt.raw_max), fmt)


def to_real(v: FxValue) -> float:
    return v.raw / (1 << v.fmt.frac_bits)


def _require_same_format(a: FxValue, b: FxValue) -> FxFormat:
    if a.fmt != b.fmt:
        raise FormatMismatchError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return a.fmt


def fx_add(a: FxValue, b: FxValue) -> FxValue:
    fmt = _require_same_format(a, b)
    s = a.raw + b.raw
    return FxValue(min(max(s, fmt.raw_min), fmt.raw_max), fmt)


def fx_mul(a: FxValue, b: FxValue) -> FxValue:
    fmt = _require_same_format(a, b)
    p = a.raw * b.raw
    f = fmt.frac_bits
    if f == 0:
        q = p
    else:
        half = 1 << (f - 1)
        q = (abs(p) + half) >> f
        if p < 0:
            q = -q
    return FxValue(min(max(q, fmt.raw_min), fmt.raw_max), fmt)


def fx_tanh(v: FxValue) -> FxValue:
    return to_fixed(float(np.tanh(to_real(v))), v.fmt)
