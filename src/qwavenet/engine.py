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
case.  Products are laid out lane-major, ``(chunks, p_in, rows, columns)``;
the mode's ``fold`` runs every accumulator's sequential MAC chain at once
along the chunk axis, and ``_tree_reduce`` combines the lane partials.  Each
column sees exactly the arithmetic ``matvec`` would apply to it (elementwise
IEEE ops are deterministic per element), so batching never changes a result;
it only amortizes call overhead.

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
    """Engine parallelism degrees: concurrent output rows, and concurrent
    input partitions per dot product (power of two, for the reduction tree)."""

    num_parallel_out: int
    num_parallel_in: int

    def __post_init__(self):
        if self.num_parallel_out < 1:
            raise ValueError(f"num_parallel_out must be >= 1, got {self.num_parallel_out}")
        _check_lanes(self.num_parallel_in)


DEFAULT_PARALLELISM = ParallelismParams(8, 4)


@dataclass
class OpStats:
    """Running operation counters, threaded through matvec calls."""

    matvec_calls: int = 0
    mac_ops: int = 0

    def record(self, rows: int, cols: int, n_vectors: int = 1) -> None:
        self.matvec_calls += n_vectors
        self.mac_ops += rows * cols * n_vectors


@dataclass(frozen=True)
class CostEstimate:
    mac_count: int
    estimated_cycles: int
    weight_buffer_elems: int


def _as_native(arr, mode):
    """Coerce to the mode's array representation.

    Fixed-point arrays are integer raws; handing real-valued floats to a
    fixed-mode op would truncate them silently, so that is rejected — convert
    with ``mode.from_real`` first.
    """
    a = np.asarray(arr)
    if a.dtype == mode.dtype:
        return a
    if mode.dtype == np.int64 and np.issubdtype(a.dtype, np.floating):
        raise TypeError(
            "fixed-point ops take raw integer arrays; use mode.from_real for real values"
        )
    return a.astype(mode.dtype)


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


def matvec_cols(W, X, bias=None, p=DEFAULT_PARALLELISM, mode=_REAL, stats=None):
    """Apply the engine matvec to every column of ``X``.

    W is (M, N), X is (N, T); returns (M, T).  Column t of the result is
    bit-identical to ``matvec(W, X[:, t], ...)``.  The engine reads W
    input-major: a W whose transpose is C-contiguous (``W.T`` of a lowered
    (N, M) array) is used in place, any other W is copied once per call.
    """
    W = _as_native(W, mode)
    X = _as_native(X, mode)
    if W.ndim != 2 or X.ndim != 2 or W.shape[1] != X.shape[0] or X.shape[0] == 0:
        raise ShapeMismatchError(f"matvec shapes {W.shape} vs {X.shape}")
    M, N = W.shape
    T = X.shape[1]
    if bias is not None:
        bias = _as_native(bias, mode)
        if bias.shape != (M,):
            raise ShapeMismatchError(f"bias shape {bias.shape}, expected ({M},)")
    p_in = p.num_parallel_in
    _check_lanes(p_in)
    if stats is not None:
        stats.record(M, N, T)
    # products[k, l, r, t] = W[r, k*p_in + l] * X[k*p_in + l, t]; rows and
    # columns are independent lanes, so evaluating them together keeps each
    # column's declared MAC/tree order exactly.  Both operands are
    # contiguous, which keeps the product contiguous for the fold.
    Wt = _deal(np.ascontiguousarray(W.T), p_in)
    Xd = _deal(np.ascontiguousarray(X), p_in)
    out = _tree_reduce(mode.fold(mode.mul(Wt[..., None], Xd[:, :, None, :])), mode)
    if bias is not None:
        out = mode.add(out, bias[:, None])
    return out


def matvec(W, x, bias=None, p=DEFAULT_PARALLELISM, mode=_REAL, stats=None):
    """Engine matvec: W (M, N) times x (N,), plus optional bias."""
    x = _as_native(x, mode)
    if x.ndim != 1:
        raise ShapeMismatchError(f"expected 1-D input vector, got shape {x.shape}")
    return matvec_cols(W, x[:, None], bias, p, mode, stats)[:, 0]


def estimate_cycles(M: int, N: int, p: ParallelismParams) -> CostEstimate:
    """Cost model for an M×N matvec on the tiled datapath.

    cycles = ceil(M / p_out) × (ceil(N / p_in) + log2(p_in) + 1): per row
    chunk, one MAC round per accumulator depth, the reduction tree, and one
    output accumulate.  The weight buffer holds one row chunk: p_out × N.
    """
    if M < 1 or N < 1:
        raise ValueError(f"matrix dims must be >= 1, got {M}x{N}")
    p_out, p_in = p.num_parallel_out, p.num_parallel_in
    depth = p_in.bit_length() - 1
    cycles = math.ceil(M / p_out) * (math.ceil(N / p_in) + depth + 1)
    return CostEstimate(
        mac_count=M * N,
        estimated_cycles=cycles,
        weight_buffer_elems=p_out * N,
    )
