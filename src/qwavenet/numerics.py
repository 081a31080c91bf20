"""Numeric mode abstraction: the same inference code runs in double
precision or in saturating fixed point, depending on which mode object it is
handed.

A mode owns the array representation.  ``RealMode`` stores float64 values
directly; ``FixedMode`` stores int64 raws for its :class:`~.fixedpoint.FxFormat`
and routes arithmetic through the saturating helpers.  ``from_real`` /
``to_real`` convert at the boundary; everything in between stays in the
mode's native representation.  ``fold`` is the mode's half of the engine
datapath: the sequential accumulation of lane-major products, whose
partials the engine's reduction tree then combines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import (
    FX27_8,
    FxFormat,
    _check_vector_format,
    add_raw,
    mul_raw,
    quantize_real,
    raw_to_real,
    tanh_raw,
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

    def mul(self, a, b):
        return a * b

    def tanh(self, x):
        return np.tanh(x)

    def fold(self, products):
        """Sequential left-fold of axis 0; the partials keep the remaining axes.

        ``np.add.reduce`` over a leading axis adds slab by slab, the in-order
        recurrence, while a slab holds more than one element.  A reduction
        over a lone contiguous axis switches to pairwise summation instead,
        so that case takes ``np.add.accumulate``, which is defined as the
        in-order recurrence.
        """
        if products[0].size == 1:
            return np.add.accumulate(products, axis=0)[-1]
        return np.add.reduce(products, axis=0)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FixedMode:
    """Saturating fixed-point arithmetic; arrays are int64 raws.

    The array helpers hold formats up to 32 bits, so a wider format is
    refused here rather than at the first operation.
    """

    fmt: FxFormat = FX27_8

    name = "fixed"
    dtype = np.int64

    def __post_init__(self):
        _check_vector_format(self.fmt)

    def from_real(self, x):
        return quantize_real(x, self.fmt)

    def to_real(self, x):
        return raw_to_real(x, self.fmt)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def add(self, a, b):
        return add_raw(a, b, self.fmt)

    def mul(self, a, b):
        return mul_raw(a, b, self.fmt)

    def tanh(self, x):
        return tanh_raw(x, self.fmt)

    def fold(self, products):
        """Sequential saturating left-fold of axis 0 of (chunks, p_in, ...).

        Shortcut: every intermediate of the fold and of the reduction tree
        after it is a sum of some of a row's products, so its magnitude is
        bounded by the row's sum of absolute products.  When that bound stays
        inside the format range for every row, nothing can saturate, every
        add is exact, and the whole row sum, taken in any order, is the
        result: it comes back as a single partial.  Products are saturated to
        at most 32 bits, so int64 sums of them cannot overflow.
        """
        fmt = self.fmt
        if np.abs(products).sum(axis=(0, 1)).max(initial=0) <= fmt.raw_max:
            return products.sum(axis=(0, 1))[None]
        acc = products[0].copy()
        for k in range(1, products.shape[0]):
            np.add(acc, products[k], out=acc)
            np.minimum(acc, fmt.raw_max, out=acc)
            np.maximum(acc, fmt.raw_min, out=acc)
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
