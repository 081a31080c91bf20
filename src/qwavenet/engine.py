"""Parameterized matrix-vector engine.

Every matvec is evaluated the way a tiled hardware datapath would do it:
within one dot product the input indices are dealt round-robin to
``num_parallel_in`` accumulators, each accumulator MACs its share
sequentially, and the partials are combined by a pairwise reduction tree.
Rows are independent, so all of them are evaluated at once;
``num_parallel_out``, the datapath's row-chunk width, enters only the cost
model and the run report.  The order is part of the contract
— two calls with the same operands and parameters produce identical results,
in real or fixed-point mode, regardless of how the work is batched.

``matvec_cols`` is the one evaluation path; ``matvec`` is its one-column
case.  W is a plain (M, N) array, lowered with its bias on every call, or a
matrix lowered once with its bias (``_Session`` keeps one per layer's
stacked taps and one for the FC weight): the mode's operand for the native
weights dealt lane-major, ``(chunks, p_in, rows)``, plus the mode's static
facts about them, both from ``mode.lower``.  Both forms run the same
kernel, which knows no number type: the mode supplies native operands and
the arithmetic.  Products are laid out
``(chunks, p_in, rows, columns)``; the mode's ``mac`` multiplies and runs
every accumulator's sequential MAC chain at once along the chunk axis, and
``_tree_reduce`` combines the lane partials.  Each column sees exactly the
arithmetic ``matvec`` would apply to it (elementwise IEEE ops are
deterministic per element), so batching never changes a result; it only
amortizes call overhead.

In fixed point ``FixedMode.mac`` takes the row-bound shortcut, the exact
lane sums or the clipped fold; its docstring states that ladder and why
each rung gives the fold's bits.  Raws outside the format range are
refused: weights and bias when lowered, inputs per call.  ``matvec`` and
``matvec_cols`` check every operand: shapes, lanes, the lowering's mode,
native inputs and, in ``mac``, the input's range.  ``_kernel`` is their
arithmetic with none of those checks; ``_Session`` runs it, or the mode's
prepared shortcut, on inputs whose facts it has established itself.

``estimate_cycles`` is the analytic cost model for the same datapath: one
cycle per MAC round per accumulator, plus tree depth, plus one accumulate,
for each row chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RealMode

_REAL = RealMode()


class ShapeMismatchError(ValueError):
    """Operand shapes disagree."""


def _check_lanes(p_in: int) -> None:
    """The reduction tree pairs lanes level by level: p_in is a power of two."""
    if p_in < 1 or p_in & (p_in - 1):
        raise ValueError(f"num_parallel_in must be a power of two >= 1, got {p_in}")


@dataclass(frozen=True)
class ParallelismParams:
    """Engine parallelism degrees (ints, as ``FxFormat``'s widths): concurrent
    output rows, and concurrent input partitions per dot product (power of
    two, for the reduction tree)."""

    num_parallel_out: int
    num_parallel_in: int

    def __post_init__(self):
        if not all(type(d) is int for d in (self.num_parallel_out, self.num_parallel_in)):
            raise TypeError(
                f"parallelism degrees must be ints, got {self.num_parallel_out!r}, "
                f"{self.num_parallel_in!r}"
            )
        if self.num_parallel_out < 1:
            raise ValueError(f"num_parallel_out must be >= 1, got {self.num_parallel_out}")
        _check_lanes(self.num_parallel_in)


DEFAULT_PARALLELISM = ParallelismParams(8, 4)


@dataclass(frozen=True)
class CostEstimate:
    mac_count: int
    estimated_cycles: int
    weight_buffer_elems: int


def _tree_reduce(arr, mode):
    """Pairwise-reduce axis 0, whose length is a power of two, to one partial.

    Adjacent pairs are summed level by level.
    """
    while arr.shape[0] > 1:
        arr = mode.add(arr[0::2], arr[1::2])
    return arr[0]


def _deal(a, p_in):
    """Deal axis 0 round-robin onto ``p_in`` lanes: (N, ...) -> (chunks, p_in, ...).

    Index j lands in chunk j // p_in, lane j mod p_in; a short last chunk is
    filled with zeros, which leave every sum unchanged.
    """
    n = a.shape[0]
    chunks = -(-n // p_in)
    if chunks * p_in != n:
        a = np.concatenate([a, np.zeros((chunks * p_in - n,) + a.shape[1:], a.dtype)])
    return a.reshape((chunks, p_in) + a.shape[1:])


@dataclass(frozen=True)
class _Lowered:
    """An (M, N) weight matrix lowered once for one mode and lane count.

    ``wd`` holds the mode's operand for the native weights dealt lane-major,
    (chunks, p_in, M), and ``facts`` the mode's static facts about them and
    the bias (both from ``mode.lower``); ``bias`` is the native (M,) bias or
    None.
    """

    wd: np.ndarray
    shape: tuple
    mode: object
    facts: object
    bias: object


def _lower(W, p_in, mode, bias=None):
    """Lower an (M, N) matrix and its optional bias for ``mode`` on ``p_in`` lanes.

    The engine reads W input-major: a W whose transpose is C-contiguous
    (``W.T`` of an (N, M) array) is dealt without a copy when p_in divides N.
    """
    W = mode.native(W)
    if W.ndim != 2 or W.shape[1] == 0:
        raise ShapeMismatchError(f"matvec weight shape {W.shape}")
    if bias is not None:
        bias = mode.native(bias)
        if bias.shape != W.shape[:1]:
            raise ShapeMismatchError(f"bias shape {bias.shape}, expected ({W.shape[0]},)")
    _check_lanes(p_in)
    wd = _deal(np.ascontiguousarray(W.T), p_in)
    operand, facts = mode.lower(wd, bias)
    return _Lowered(operand, W.shape, mode, facts, bias)


def matvec_cols(W, X, bias=None, p=DEFAULT_PARALLELISM, mode=_REAL):
    """Apply the engine matvec to every column of ``X``.

    W is (M, N), plain or lowered for this mode and ``p``'s lane count; X is
    (N, T); returns (M, T).  Column t of the result is bit-identical to
    ``matvec(W, X[:, t], ...)``.  A plain W is lowered on every call, with
    ``bias``, and is copied when its transpose is not C-contiguous; a lowered
    W carries its own bias and takes no other.
    """
    p_in = p.num_parallel_in
    if not isinstance(W, _Lowered):
        W = _lower(W, p_in, mode, bias)
    elif bias is not None:
        raise ValueError("a lowered matrix carries its own bias")
    elif W.mode != mode or W.wd.shape[1] != p_in:
        raise ValueError(
            f"matrix lowered for {W.mode} on {W.wd.shape[1]} lanes, used in {mode} on {p_in}"
        )
    X = mode.native(X)
    M, N = W.shape
    if X.ndim != 2 or X.shape[0] != N:
        raise ShapeMismatchError(f"matvec shapes {W.shape} vs {X.shape}")
    out = _kernel(W, np.ascontiguousarray(X))
    if W.bias is not None:
        out = mode.add(out, W.bias[:, None])
    return out


def _kernel(W, X):
    """The engine's arithmetic on a lowered W and native, contiguous (N, T)
    columns X, without the bias, checking nothing but what ``mac`` checks.

    products[k, l, r, t] = W[r, k*p_in + l] * X[k*p_in + l, t]; rows and
    columns are independent lanes, so evaluating them together keeps each
    column's declared MAC/tree order exactly.  Both operands are
    contiguous, which keeps the product contiguous for the fold.
    """
    return _tree_reduce(W.mode.mac(W, _deal(X, W.wd.shape[1])), W.mode)


def matvec(W, x, bias=None, p=DEFAULT_PARALLELISM, mode=_REAL):
    """Engine matvec: W (M, N) times x (N,), plus optional bias."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeMismatchError(f"expected 1-D input vector, got shape {x.shape}")
    return matvec_cols(W, x[:, None], bias, p, mode)[:, 0]


def estimate_cycles(M: int, N: int, p: ParallelismParams) -> CostEstimate:
    """Cost model for an M×N matvec on the tiled datapath.

    cycles = ceil(M / p_out) × (ceil(N / p_in) + log2(p_in) + 1): per row
    chunk, one MAC round per accumulator depth, the reduction tree, and one
    output accumulate.  The weight buffer holds one row chunk: p_out × N.
    """
    if type(M) is not int or type(N) is not int:
        raise TypeError(f"matrix dims must be ints, got {M!r}x{N!r}")
    if M < 1 or N < 1:
        raise ValueError(f"matrix dims must be >= 1, got {M}x{N}")
    p_out, p_in = p.num_parallel_out, p.num_parallel_in
    _check_lanes(p_in)
    depth = p_in.bit_length() - 1
    cycles = math.ceil(M / p_out) * (math.ceil(N / p_in) + depth + 1)
    return CostEstimate(
        mac_count=M * N,
        estimated_cycles=cycles,
        weight_buffer_elems=p_out * N,
    )
