"""Array arithmetic: the same inference code runs in double precision or in
saturating fixed point, depending on which mode object it is handed.

A mode owns the array representation.  ``RealMode`` stores float64 values;
``FixedMode`` stores int64 raws of an :class:`~.fixedpoint.FxFormat`, keeps
them in int32 rings, and holds its own saturating add and tanh.  ``native``
coerces an operand to the mode's representation, and ``from_real`` /
``to_real`` convert at the boundary; everything in between stays native.
``lower`` and ``mac`` are the mode's half of the engine datapath: the
operand and static facts kept with a lowered weight matrix and its bias,
and the multiply plus sequential accumulation of lane-major products, whose
partials the engine's reduction tree then combines.  ``FixedMode.mac``
states how fixed point rounds every product exactly in float64 and when its
accumulation may skip the clips.  For a generated step, ``step_input``
checks the one new input, and ``prepare`` picks once per matrix, from its
static facts, the rung of ``mac`` every such input may take: the shortcut
where the row bound covers them all, else the exact lanes or their fold,
with no scan and no deal, where no product of theirs can clip, else
``mac`` whole.

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
    is exact for every representable input.  The clip in place to bounds of
    at most 27 bits is exact, infinities included, and puts the one cast in
    range.
    """
    with np.errstate(over="ignore"):  # past float64 is +-inf, which saturates
        v = np.asarray(x, dtype=np.float64) * float(1 << fmt.frac_bits)
    if np.isnan(v).any():
        raise ValueError("cannot quantize NaN")
    return _saturate_inplace(_round_half_away_f64(v), fmt).astype(np.int64)


def _saturate_inplace(arr, fmt: FxFormat):
    np.minimum(arr, fmt.raw_max, out=arr)
    np.maximum(arr, fmt.raw_min, out=arr)
    return arr


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
    as ``FxValue`` refuses it, since its products could pass 2**52, beyond
    what float64 holds exactly."""
    hi, lo = int(arr.max(initial=0)), int(arr.min(initial=0))
    if hi > fmt.raw_max or lo < fmt.raw_min:
        raise ValueError(
            f"raw {hi if hi > fmt.raw_max else lo} out of range for {fmt} "
            f"[{fmt.raw_min}, {fmt.raw_max}]"
        )
    return max(hi, -lo)


def _rounded_products(operand, offset, x):
    """``FixedMode.mac``'s rounded products trunc(W_raw·2^-f·|x_raw| + C) of
    a lowered operand and its offsets, laid out (..., rows), with raws ``x``
    laid out (..., columns): (..., rows, columns).  ``einsum`` forms each
    exact product in about two thirds of a broadcast multiply's time; the
    +0 it gives a zero product is moot once C = +-1/2 is added."""
    q = np.einsum("...r,...c->...rc", operand, np.abs(x, dtype=np.float64))
    q += offset[..., None]
    return np.trunc(q, out=q)


def _shortcut(operand, offset, x):
    """``FixedMode.mac``'s shortcut rung: the int64 (rows, columns) row sums
    of the rounded products of a lowered operand and its offsets, read
    input-major as (N, rows), with (N, columns) raws ``x``.  One contraction
    with sign(x), BLAS's ``@`` for one column.  It checks nothing: the
    caller has shown that ``row_bound`` fits at x."""
    q = _rounded_products(operand, offset, x)
    sign = np.sign(x, dtype=np.float64)
    if x.shape[1] == 1:
        return (sign[:, 0] @ q[:, :, 0]).astype(np.int64)[:, None]
    return np.einsum("krc,kc->rc", q, sign).astype(np.int64)


def _lanes_or_fold(q, sign, offset, mask, fmt: FxFormat):
    """``FixedMode.mac``'s exact-lanes rung, for rounded products ``q`` (n,
    rows, columns) that cannot clip (``_products_fit``), signed by ``sign``
    (n, columns), with offsets ``offset`` (n, rows) and input k on lane
    k mod p_in as ``mask`` (p_in, n) marks it: the int64 (p_in, rows,
    columns) lane sums when every lane's positive and negative sums are in
    range, else ``_fold``'s partials.

    With a lane's total T and absolute sum A, those sums are (T +- A)/2.  T
    and A are BLAS products with the mask for one column; for more, T is
    one ``einsum`` over the lanes of n = chunks·p_in dealt inputs.  A is
    formed in place, as |q|, so the fold first restores the sign of each
    product, that of its offset C = +-1/2, as 2C·|q|, and pads a short last
    chunk with zero products."""
    (p, n), (rows, cols) = mask.shape, q.shape[1:]
    if cols == 1:
        total = ((mask * sign[:, 0]) @ q[:, :, 0])[:, :, None]
    else:
        dealt = (n // p, p)
        total = np.einsum("kprc,kpc->prc", q.reshape(*dealt, rows, cols), sign.reshape(*dealt, cols))
    size = (mask @ np.abs(q, out=q).reshape(n, rows * cols)).reshape(p, rows, cols)
    pos, neg = (total + size).max(initial=0), (total - size).min(initial=0)
    if pos <= 2 * fmt.raw_max and neg >= 2 * fmt.raw_min:
        return total.astype(np.int64)
    q *= offset[..., None]
    q *= 2 * sign[:, None, :]
    chunks = -(-n // p)
    if chunks * p != n:
        q = np.concatenate([q, np.zeros((chunks * p - n, rows, cols))])
    return _fold(q.reshape(chunks, p, rows, cols), fmt)


def _fold(q, fmt: FxFormat):
    """``FixedMode.mac``'s fold: signed products ``q`` (chunks, p_in, rows,
    columns), each in range, left-folded over the chunks with a clip after
    every add; int64 (p_in, rows, columns)."""
    acc = q[0].copy()
    for k in range(1, q.shape[0]):
        np.add(acc, q[k], out=acc)
        np.minimum(acc, fmt.raw_max, out=acc)
        np.maximum(acc, fmt.raw_min, out=acc)
    return acc.astype(np.int64)


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

    def lower(self, wd, bias):
        """Real arithmetic multiplies the dealt weights as they are and needs
        no static facts about them."""
        return wd, None

    def prepare(self, w):
        """Real arithmetic has no rungs: every step runs the engine's kernel."""
        return "kernel", None

    step_input = native

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
    ``FxFormat``, whose 27-bit limit lets float64 hold every product exactly.
    Product rings are int32: every value a ring keeps is a raw of the format."""

    fmt: FxFormat = FX27_8

    dtype = np.int64

    native = staticmethod(_as_raws)

    def from_real(self, x):
        return quantize_real(x, self.fmt)

    def to_real(self, x):
        """Real values of raws; float operands are refused, as in ``add``."""
        return np.divide(_as_raws(x), float(1 << self.fmt.frac_bits))

    def zeros(self, shape):
        """Zeroed int32 storage: a raw of at most 27 bits fits a 32-bit word,
        and ``add`` widens to int64 before it adds."""
        return np.zeros(shape, dtype=np.int32)

    def add(self, a, b):
        """Saturating add of raws of the format (every engine and queue operand
        is one): exact int64 add, then clip.  Float operands are refused."""
        return _saturate_inplace(np.add(a, b, dtype=np.int64), self.fmt)

    def tanh(self, x):
        """Double-precision tanh of the real value of raws, rounded half away
        from zero; the result is always in range.  Float operands are
        refused, as in ``add``.

        v = tanh(x/2^f)·2^f is 0 at x = 0 and otherwise at least tanh(1) ≈ 0.76
        in magnitude, as tanh(y)/y falls with |y| and |x| >= 1.  So v never
        lies just below one half, where v + 1/2 would round up to 1, and for
        |v| >= 1/2 (at most 2^26) adding copysign(1/2, v) cannot round across an
        integer: trunc of the sum is v rounded half away from zero.  No clip
        is needed: |v| <= 2^f <= raw_max when int_bits >= 2, and when
        int_bits = 1 the real inputs lie in [-1, 1), where |v| <= tanh(1)·2^f
        rounds to at most raw_max, and v >= -2^f = raw_min.
        """
        scale = float(1 << self.fmt.frac_bits)
        v = np.tanh(_as_raws(x) / scale)
        v *= scale
        v += np.copysign(0.5, v)
        return np.trunc(v, out=v).astype(np.int64)

    def lower(self, wd, bias):
        """The float64 operand W_raw·2^-f of dealt weight raws, and the facts
        (S_max, w_max, C, mask): the largest row sum of |W_raw| and the
        largest |W_raw|, as Python ints, the rounding offset C =
        copysign(1/2, W) in the operand's layout, and the (p_in, K) lane mask
        of its K = chunks·p_in inputs (``_lanes_or_fold``).  Weight and bias raws
        outside the format range are refused: ``add``'s int64 add would wrap
        such a bias raw.  Scaling by a power of two is exact, so the operand
        holds each raw."""
        w_max = _max_abs(wd, self.fmt)
        if bias is not None:
            _max_abs(bias, self.fmt)
        s_max = int(np.abs(wd).sum(axis=(0, 1)).max(initial=0))
        operand = wd * (1.0 / (1 << self.fmt.frac_bits))
        chunks, p_in = wd.shape[:2]
        mask = np.tile(np.eye(p_in), chunks)
        return operand, (s_max, w_max, np.copysign(0.5, operand), mask)

    def row_bound(self, w, m: int) -> int:
        """(S_max·m >> f) + N: with inputs |x_raw| <= m, no rounded product,
        fold partial or tree partial of any row of lowered matrix ``w``
        exceeds it in magnitude.  Python ints, as S_max·m can pass 2**63."""
        return (w.facts[0] * m >> self.fmt.frac_bits) + w.shape[1]

    def mac(self, w, xd):
        """Multiply, round and fold a lowered matrix with dealt columns; the
        int64 partials keep the (p_in, rows, columns) axes.

        Rounded products: q = trunc(W_raw·2^-f·|x_raw| + C) is the product
        rounded half away from zero, with the sign of W as |x_raw| >= 0, and
        q·sign(x_raw) is ``fx_mul``'s rounded product before its clip.  Every
        step is exact in float64: |W_raw·x_raw| <= 2^52, so W_raw·2^-f·|x_raw|
        is exact; adding +-1/2 keeps a multiple of 2^-f within 53 significant
        bits when f >= 1, and when f = 0 the one sum that does not fit,
        +-(2^52 + 1/2), rounds to the even +-2^52, which truncates to itself.

        The first of three ways that applies accumulates q, and each gives
        the clipped per-chunk fold's bits.  With m the largest |x_raw|:

        - Shortcut, when ``row_bound`` fits the format: each |q| of a row is
          at most |W_raw|·m/2^f + 1/2, so its Σ|q| is at most S_max·m/2^f +
          N/2, which the bound covers, and nothing saturates.  The row sum
          is one contraction of q with sign(x), exact in any order, as every
          partial sum is an integer of at most raw_max (``_shortcut``, which
          ``prepare`` also hands out); it comes back as one partial with no
          clip.
        - Exact lanes, only when ``_products_fit`` shows from w_max·m that
          no product can clip: every prefix of a lane's fold lies between
          the sums of its negative and of its positive products, so when
          both are in range for every lane no clip fires and the lane sums
          are the result.  With a lane's total T of q·sign(x) and its sum A
          of |q|, those two sums are (T - A)/2 and (T + A)/2.  When the test
          fails, the fold below runs on the same products
          (``_lanes_or_fold``, which ``prepare`` also hands out).
        - Fold: the signed products, clipped first when they can clip,
          left-folded over the chunks with a clip after every add
          (``_fold``).  Products that can clip skip the lane test; where
          their lanes stay in range the fold clips nothing.  No generator makes them: its inputs are
          samples in [-1, 1] or tanh outputs, so m <= 2^f, and a rounded
          product then passes raw_max only when a weight raw of raw_min (a
          real weight at or below -2^(I-1)) meets |x| = 1; a census of 43320
          generated matvecs in six formats found none.

        Lane sums stay below chunks·raw_max and fold values below
        2·raw_max, so both are exact in float64.  Input raws outside the
        format range are refused: this scan is ``mac``'s one check, and its
        m picks the rung.  A generated step skips both, as m <= 2^f
        (``prepare``): where the bound at 2^f fits it runs the shortcut
        alone, and where no product can clip at 2^f it runs the exact
        lanes, or their fold, with no scan and no deal; only a matrix with
        a weight raw of raw_min runs ``mac`` whole.
        """
        fmt = self.fmt
        m = _max_abs(xd, fmt)
        c = w.facts[2]
        k, rows = xd.shape[0] * xd.shape[1], w.shape[0]
        if self.row_bound(w, m) <= fmt.raw_max:
            return _shortcut(w.wd.reshape(k, rows), c.reshape(k, rows), xd.reshape(k, -1))[None]
        sign = np.sign(xd, dtype=np.float64)
        q = _rounded_products(w.wd, c, xd)
        if _products_fit(w.facts[1], m, fmt):
            flat = (q.reshape(k, *q.shape[2:]), sign.reshape(k, -1), c.reshape(k, rows))
            return _lanes_or_fold(*flat, w.facts[3], fmt)
        q *= sign[:, :, None, :]
        return _fold(_saturate_inplace(q, fmt), fmt)

    def generated_headroom(self, w) -> float:
        """``row_bound`` of lowered matrix ``w`` at |x_raw| <= 2^f, the bound
        of every generated input (``step_input``), as a share of raw_max; at
        most 1 exactly when the bound fits, as raw_max < 2^26."""
        fmt = self.fmt
        return self.row_bound(w, 1 << fmt.frac_bits) / fmt.raw_max

    def prepare(self, w):
        """The rung of ``mac`` that every generated input, one (N,) vector of
        raws with |x_raw| <= 2^f, may take for lowered matrix ``w`` without
        its bias, decided from its static facts: ``(rung, function)``.

        - ``"shortcut"`` when ``generated_headroom`` is at most 1: the
          function gives ``_shortcut``'s (rows,) row sums.
        - ``"lanes"`` when the row bound fails but ``_products_fit`` at
          2^f shows that no product can clip: the function gives
          ``_lanes_or_fold``'s (p_in, rows, 1) partials, for the engine's
          tree: the lane sums, or the fold when the input fails the lane
          test.
        - ``"ladder"`` otherwise, with no function: the step runs ``mac``
          whole.

        Neither function scans or deals its input.  They read views of
        ``w``'s operand, offsets and lane mask, less a short last chunk's
        padding, whose products are 0."""
        fmt = self.fmt
        rows, n = w.shape
        operand, offset = (a.reshape(-1, rows)[:n] for a in (w.wd, w.facts[2]))
        if self.generated_headroom(w) <= 1:
            return "shortcut", lambda x: _shortcut(operand, offset, x[:, None])[:, 0]
        if not _products_fit(w.facts[1], 1 << fmt.frac_bits, fmt):
            return "ladder", None
        mask = w.facts[3][:, :n]

        def lanes(x):
            x = x[:, None]
            q = _rounded_products(operand, offset, x)
            return _lanes_or_fold(q, np.sign(x, dtype=np.float64), offset, mask, fmt)

        return "lanes", lanes

    def step_input(self, x):
        """``x`` as native raws for ``prepare``'s functions, refused when a
        float or when some |x_raw| passes 2^f: a generated input is a sample
        in [-1, 1] or a ``tanh`` output, and both lie within that bound."""
        x = _as_raws(x)
        if _max_abs(x, self.fmt) > 1 << self.fmt.frac_bits:
            raise ValueError(f"step input past |x| = 1 in {self.fmt}")
        return x

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
