"""Saturating signed fixed-point formats and the exact scalar reference.

A value is an integer ``raw`` interpreted as ``raw / 2**frac_bits`` in a
``total_bits``-wide two's-complement word; ``int_bits`` includes the sign.
Numeric rules, chosen once and applied everywhere:

* conversion and multiplication round to nearest, ties away from zero;
* overflow saturates to the format bounds, never wraps;
* tanh is evaluated in double precision on the real value and requantized.

A format is at most 27 bits wide, so the product of any two raws is at
most 2**52 in magnitude and float64 holds it exactly, as int64 does; the
engine's fixed-point matvec computes its rounded products in float64.  The
scalar operations here (:class:`FxValue`, ``fx_*``) use Python integers and
are exact: they are the oracle for the array operations in
:mod:`qwavenet.numerics` (``FixedMode``, ``quantize_real``, ``mul_raw``),
which give the same bits on int64 raws.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_TOTAL_BITS = 27
_FORMAT_RE = re.compile(r"^fixed<\s*(\d+)\s*,\s*(\d+)\s*>$")


class FormatMismatchError(ValueError):
    """Binary operation on values of different fixed-point formats."""


@dataclass(frozen=True)
class FxFormat:
    """Bit layout: ``total_bits`` (int, 2 to 27) overall, ``int_bits`` integer incl. sign.

    The 27-bit limit keeps every raw product, at most raw_min**2 = 2**52 in
    magnitude, exact in float64, which the fixed-point matvec relies on."""

    total_bits: int
    int_bits: int

    def __post_init__(self):
        if not all(type(w) is int for w in (self.total_bits, self.int_bits)):
            raise TypeError(f"widths must be ints, got {self.total_bits!r}, {self.int_bits!r}")
        if not 2 <= self.total_bits <= MAX_TOTAL_BITS:
            raise ValueError(
                f"total_bits must be in [2, {MAX_TOTAL_BITS}], got {self.total_bits}"
            )
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
