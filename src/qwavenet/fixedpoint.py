"""Saturating signed fixed-point arithmetic with a parameterized format.

A value is an integer ``raw`` interpreted as ``raw / 2**frac_bits`` in a
``total_bits``-wide two's-complement word; ``int_bits`` includes the sign.
Numeric rules, chosen once and applied everywhere:

* conversion and multiplication round to nearest, ties away from zero;
* overflow saturates to the format bounds, never wraps;
* tanh is evaluated in double precision on the real value and requantized.

A format is at most 32 bits wide, so int64 holds the product of any two
raws.  Scalar operations (:class:`FxValue`, ``fx_*``) use Python integers and
are exact; the array operations (``quantize_real``, ``mul_raw`` and the
helpers ``numerics.FixedMode`` is built from) give the same bits on int64 raws.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_FORMAT_RE = re.compile(r"^fixed<\s*(\d+)\s*,\s*(\d+)\s*>$")


class FormatMismatchError(ValueError):
    """Binary operation on values of different fixed-point formats."""


@dataclass(frozen=True)
class FxFormat:
    """Bit layout: ``total_bits`` (int, 2 to 32) overall, ``int_bits`` integer incl. sign."""

    total_bits: int
    int_bits: int

    def __post_init__(self):
        if not all(type(w) is int for w in (self.total_bits, self.int_bits)):
            raise TypeError(f"widths must be ints, got {self.total_bits!r}, {self.int_bits!r}")
        if not 2 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in [2, 32], got {self.total_bits}")
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


def _as_raws(arr):
    """Coerce to int64 raws without changing a value: floats, which the cast
    would truncate, and unsigned values past int64, which it would wrap into
    the format's range, are refused.  Convert real values with ``from_real``."""
    a = np.asarray(arr)
    if a.dtype == np.int64:
        return a
    if np.issubdtype(a.dtype, np.floating):
        raise TypeError("fixed-point ops take raw integer arrays; use from_real for real values")
    if a.dtype.kind == "u" and int(a.max(initial=0)) > np.iinfo(np.int64).max:
        raise ValueError(f"raw {int(a.max())} does not fit int64")
    return a.astype(np.int64)


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
    with np.errstate(over="ignore"):  # past float64 is +-inf, which saturates
        v = np.asarray(x, dtype=np.float64) * float(1 << fmt.frac_bits)
    if np.isnan(v).any():
        raise ValueError("cannot quantize NaN")
    return _saturate_to_raws(_round_half_away_f64(v), fmt)


def _saturate_inplace(arr, fmt: FxFormat):
    np.minimum(arr, fmt.raw_max, out=arr)
    np.maximum(arr, fmt.raw_min, out=arr)
    return arr


def _saturate_to_raws(r, fmt: FxFormat):
    """Integral float64 values or infinities -> int64 raws: the clip in place to
    bounds of at most 32 bits is exact, and puts the one cast in range."""
    return _saturate_inplace(r, fmt).astype(np.int64)


def mul_raw(a, b, fmt: FxFormat):
    """Saturating multiply of raw arrays.

    Operands follow the engine's rule (``_as_raws``): floats and raws outside
    the format range are refused.  Full int64 product, then ``_mul_round``,
    then clip.
    """
    a = _as_raws(a)
    b = _as_raws(b)
    _max_abs(a, fmt)
    _max_abs(b, fmt)
    return _saturate_inplace(_mul_round(a, b, fmt.frac_bits), fmt)


def _mul_round(a, b, f: int):
    """int64 product shifted right by ``f``, rounded half away from zero; no clip.

    Rounding uses the branch-free two's-complement identity: adding half-1
    instead of half before the arithmetic shift when the product is negative
    (p >> 63 is -1 exactly then) lands on round-half-away for both signs.
    """
    p = a * b
    if f:
        offset = p >> 63
        offset += 1 << (f - 1)
        p += offset
        p >>= f
    return p


def _products_fit(a_max: int, b_max: int, fmt: FxFormat) -> bool:
    """Whether every rounded product of magnitudes up to a_max, b_max is in range."""
    f = fmt.frac_bits
    return (a_max * b_max + ((1 << f) >> 1)) >> f <= fmt.raw_max


def _max_abs(arr, fmt: FxFormat) -> int:
    """Largest |raw| of an int64 array; a raw outside the format range is refused,
    as ``FxValue`` refuses it, since its products could wrap int64."""
    hi, lo = int(arr.max(initial=0)), int(arr.min(initial=0))
    if hi > fmt.raw_max or lo < fmt.raw_min:
        raise ValueError(
            f"raw {hi if hi > fmt.raw_max else lo} out of range for {fmt} "
            f"[{fmt.raw_min}, {fmt.raw_max}]"
        )
    return max(hi, -lo)


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
