"""Numeric mode abstraction: the same inference code runs in double
precision or in saturating fixed point, depending on which mode object it is
handed.

A mode owns the array representation.  ``RealMode`` stores float64 values
directly; ``FixedMode`` stores int64 raws for its :class:`~.fixedpoint.FxFormat`
and holds its own saturating add and tanh, built on ``fixedpoint``'s rounding
and saturation helpers.  ``from_real`` / ``to_real`` convert at the boundary;
everything in between stays in the mode's native representation.
``matrix_facts`` and ``mac`` are the mode's half of the engine datapath: the
static facts kept with a lowered weight matrix, and the multiply plus
sequential accumulation of lane-major products, whose partials the engine's
reduction tree then combines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import (
    FX27_8,
    FxFormat,
    _as_raws,
    _max_abs,
    _mul_round,
    _products_fit,
    _round_half_away_f64,
    _saturate_inplace,
    _saturate_to_raws,
    quantize_real,
    parse_format,
)


@dataclass(frozen=True)
class RealMode:
    """Double-precision arithmetic; arrays are plain float64."""

    name = "real"
    dtype = np.float64

    def from_real(self, x):
        return np.asarray(x, dtype=np.float64)

    def to_real(self, x):
        return np.asarray(x, dtype=np.float64)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.float64)

    def add(self, a, b):
        return a + b

    def tanh(self, x):
        return np.tanh(x)

    def matrix_facts(self, wd):
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
        return self.name


@dataclass(frozen=True)
class FixedMode:
    """Saturating fixed-point arithmetic; arrays are int64 raws of an
    ``FxFormat``, whose 32-bit limit lets int64 hold every product."""

    fmt: FxFormat = FX27_8

    name = "fixed"
    dtype = np.int64

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

    def matrix_facts(self, wd):
        """(S_max, w_max) of dealt weight raws: the largest row sum of |W_raw|
        and the largest |W_raw|, as Python ints.  Raws outside the format
        range are refused."""
        w_max = _max_abs(wd, self.fmt)
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
        w_max·m shows that a rounded product can leave the range, and the
        chunks are left-folded with a clip after every add.  Products are
        then at most 32 bits, so no int64 sum of them overflows.  Input raws
        outside the format range are refused.
        """
        fmt = self.fmt
        raw_min, raw_max = fmt.raw_min, fmt.raw_max
        m = _max_abs(xd, fmt)
        products = _mul_round(w.wd[..., None], xd[:, :, None, :], fmt.frac_bits)
        if self.row_bound(w, m) <= raw_max:
            return products.sum(axis=(0, 1))[None]
        if not _products_fit(w.facts[1], m, fmt):
            _saturate_inplace(products, fmt)
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
