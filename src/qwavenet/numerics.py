"""Array arithmetic: the same inference code runs in double precision or in
saturating fixed point, depending on which mode object it is handed.

A mode owns the array representation.  ``RealMode`` stores float64 values;
``FixedMode`` stores int64 raws of an :class:`~.fixedpoint.FxFormat` and
holds its own saturating add and tanh.  ``native`` coerces an operand to the
mode's representation, and ``from_real`` / ``to_real`` convert at the
boundary; everything in between stays native.  ``matrix_facts`` and ``mac``
are the mode's half of the engine datapath: the static facts kept with a
lowered weight matrix and its bias, and the multiply plus sequential
accumulation of lane-major products, whose partials the engine's reduction
tree then combines.  In fixed point the accumulation skips its clips when
they cannot fire: when the cached row bound fits the format, or when no
lane's positive or negative product sum leaves it.

The raw-array operations live here too: ``quantize_real`` and ``mul_raw``,
and the rounding, saturation and operand rules ``FixedMode`` is built from.
They give the same bits as the exact scalar reference in
:mod:`qwavenet.fixedpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import FX27_8, FxFormat, parse_format


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


@dataclass(frozen=True)
class RealMode:
    """Double-precision arithmetic; arrays are plain float64."""

    dtype = np.float64

    def native(self, x):
        return np.asarray(x, dtype=np.float64)

    from_real = to_real = native

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.float64)

    def add(self, a, b):
        return a + b

    def tanh(self, x):
        return np.tanh(x)

    def matrix_facts(self, wd, bias):
        """Real arithmetic needs no static facts about a matrix."""
        return None

    def mac(self, w, xd):
        """Products of a lowered matrix and dealt columns, left-folded over the
        chunk axis; the partials keep the (p_in, rows, columns) axes.

        ``np.add.reduce`` over a leading axis adds slab by slab, the in-order
        recurrence, while a slab holds more than one element.  A reduction
        over a lone contiguous axis switches to pairwise summation instead,
        so that case takes ``np.add.accumulate``, which is defined as the
        in-order recurrence.
        """
        products = w.wd[..., None] * xd[:, :, None, :]
        if products[0].size == 1:
            return np.add.accumulate(products, axis=0)[-1]
        return np.add.reduce(products, axis=0)

    def __str__(self) -> str:
        return "real"


@dataclass(frozen=True)
class FixedMode:
    """Saturating fixed-point arithmetic; arrays are int64 raws of an
    ``FxFormat``, whose 32-bit limit lets int64 hold every product."""

    fmt: FxFormat = FX27_8

    dtype = np.int64

    native = staticmethod(_as_raws)

    def from_real(self, x):
        return quantize_real(x, self.fmt)

    def to_real(self, x):
        """Real values of raws; float operands are refused, as in ``add``."""
        return np.divide(_as_raws(x), float(1 << self.fmt.frac_bits))

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def add(self, a, b):
        """Saturating add of raws of the format (every engine and queue operand
        is one): exact int64 add, then clip.  Float operands are refused."""
        return _saturate_inplace(np.add(a, b, dtype=np.int64), self.fmt)

    def tanh(self, x):
        """Double-precision tanh of the real value of raws, rounded half away
        and saturated; |tanh| <= 1 needs no NaN test.  Float operands are
        refused, as in ``add``."""
        scale = float(1 << self.fmt.frac_bits)
        r = _round_half_away_f64(np.tanh(_as_raws(x) / scale) * scale)
        return _saturate_to_raws(r, self.fmt)

    def matrix_facts(self, wd, bias):
        """(S_max, w_max) of dealt weight raws: the largest row sum of |W_raw|
        and the largest |W_raw|, as Python ints.  Weight and bias raws outside
        the format range are refused: ``add``'s int64 add would wrap such a
        bias raw."""
        w_max = _max_abs(wd, self.fmt)
        if bias is not None:
            _max_abs(bias, self.fmt)
        return int(np.abs(wd).sum(axis=(0, 1)).max(initial=0)), w_max

    def row_bound(self, w, m: int) -> int:
        """(S_max·m >> f) + N: with inputs |x_raw| <= m, no rounded product,
        fold partial or tree partial of any row of lowered matrix ``w``
        exceeds it in magnitude.  Python ints, as S_max·m can pass 2**63."""
        return (w.facts[0] * m >> self.fmt.frac_bits) + w.shape[1]

    def mac(self, w, xd):
        """Multiply, round and fold a lowered matrix with dealt columns.

        Each rounded product of a row is at most |W_raw|·m/2^f + 1/2, so any
        partial sum of them is at most S_max·m/2^f + N/2, which ``row_bound``
        covers.  When the bound fits the format, nothing saturates and the
        exact row sum, in any order, is the result: it comes back as one
        partial with no clip.  Otherwise the product is clipped only when
        w_max·m shows that a rounded product can leave the range; products
        are then at most 32 bits, so no int64 sum of them overflows.  Every
        prefix of a lane's fold lies between the sums of its negative and
        of its positive products, so when those are in range for every lane
        no clip can fire and the lane sums are the fold's result.  Only
        otherwise are the chunks left-folded with a clip after every add.
        Input raws outside the format range are refused.
        """
        fmt = self.fmt
        raw_min, raw_max = fmt.raw_min, fmt.raw_max
        m = _max_abs(xd, fmt)
        products = _mul_round(w.wd[..., None], xd[:, :, None, :], fmt.frac_bits)
        if self.row_bound(w, m) <= raw_max:
            return products.sum(axis=(0, 1))[None]
        if not _products_fit(w.facts[1], m, fmt):
            _saturate_inplace(products, fmt)
        total = products.sum(axis=0)
        pos = np.maximum(products, 0).sum(axis=0)
        if pos.max(initial=0) <= raw_max and (total - pos).min(initial=0) >= raw_min:
            return total
        acc = products[0].copy()
        for k in range(1, products.shape[0]):
            np.add(acc, products[k], out=acc)
            np.minimum(acc, raw_max, out=acc)
            np.maximum(acc, raw_min, out=acc)
        return acc

    def __str__(self) -> str:
        return str(self.fmt)


def parse_mode(text: str):
    """``"real"`` -> RealMode, ``"fixed"`` or ``"fixed<T,I>"`` -> FixedMode."""
    t = text.strip()
    if t == "real":
        return RealMode()
    if t == "fixed":
        return FixedMode()
    if t.startswith("fixed<"):
        return FixedMode(parse_format(t))
    raise ValueError(f"unknown numeric mode: {text!r}")
