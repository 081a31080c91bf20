"""Per-layer cyclic input queues, the dilated causal convolution step on
them, and the same convolution over a full history.

A layer with dilation d needs its input from d steps ago.  Instead of keeping
the whole history, ``dilated_conv_step`` gives each layer a ring buffer of
exactly d input rows: the slot at ``head`` is the oldest entry (the
d-steps-delayed input), and one step does a single overwrite-and-advance —
pop and push fused, never a shift — around two matvecs.  This input-queue
step is the reference the benchmark's loop and the tests build from; no
command or generator runs it: ``generate`` keeps the delayed tap's products
instead (``inference``).

``naive_dilated_conv_sequence`` evaluates the same convolution directly from
a full input history.  It exists as the reference path: queue-based and
history-based evaluation must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DEFAULT_PARALLELISM, ShapeMismatchError, matvec, matvec_cols
from .model import LayerSpec
from .numerics import RealMode, _as_raws

_REAL = RealMode()


class CyclicQueue:
    """Fixed-length ring of channel vectors, zeroed at the start; head marks
    the oldest slot."""

    __slots__ = ("storage", "head")

    def __init__(self, length: int, channels: int, dtype=np.float64):
        if length < 1:
            raise ValueError(f"queue length must be >= 1, got {length}")
        if channels < 1:
            raise ValueError(f"channel count must be >= 1, got {channels}")
        self.storage = np.zeros((length, channels), dtype=dtype)
        self.head = 0

    @property
    def length(self) -> int:
        return self.storage.shape[0]

    @property
    def channels(self) -> int:
        return self.storage.shape[1]

    def front(self):
        """The oldest entry (input from ``length`` steps ago), as a copy."""
        return self.storage[self.head].copy()

    def push(self, v) -> None:
        """Overwrite the oldest slot with ``v`` and advance the head."""
        v = np.asarray(v)
        if v.shape != (self.channels,):
            raise ShapeMismatchError(
                f"pushed vector shape {v.shape}, expected ({self.channels},)"
            )
        if np.issubdtype(self.storage.dtype, np.integer):
            v = _as_raws(v)  # refuses real values and raws int64 cannot hold
        self.storage[self.head] = v
        self.head = (self.head + 1) % self.length


@dataclass
class LayerState:
    """One layer's mutable generation state: its queue."""

    queue: CyclicQueue

    @classmethod
    def fresh(cls, spec: LayerSpec, dtype=np.float64) -> "LayerState":
        return cls(queue=CyclicQueue(spec.dilation, spec.in_channels, dtype=dtype))


def dilated_conv_step(state: LayerState, prev_out, k0, k1, p=DEFAULT_PARALLELISM, mode=_REAL):
    """One layer, one time step, via the queue.

    Computes tanh(k0 × (queue front) + k1 × prev_out), then pushes prev_out
    so it surfaces again ``dilation`` steps later.  k0 and k1 are (out, in)
    matrices, plain arrays or lowered by the engine for ``mode`` and ``p``.
    """
    delayed = matvec(k0, state.queue.front(), p=p, mode=mode)
    current = matvec(k1, prev_out, p=p, mode=mode)
    out = mode.tanh(_add_taps(delayed, current, mode))
    state.queue.push(prev_out)
    return out


def naive_dilated_conv_sequence(history, k0, k1, dilation: int, p=DEFAULT_PARALLELISM, mode=_REAL):
    """Dilated convolution at every step of the history at once.

    Returns (T, out_channels); row t is k0 × history[t - dilation] + k1 ×
    history[t], with rows before the start of time as zeros and no activation.
    Columns are independent engine lanes, so rows match one-column matvecs.
    """
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    history = np.asarray(history)
    if history.ndim != 2 or history.shape[0] < 1:
        raise ShapeMismatchError(f"history must be (T >= 1, channels), got {history.shape}")
    delayed = np.zeros_like(history)
    delayed[dilation:] = history[: max(history.shape[0] - dilation, 0)]
    delayed = matvec_cols(k0, delayed.T, p=p, mode=mode)
    current = matvec_cols(k1, history.T, p=p, mode=mode)
    return _add_taps(delayed, current, mode).T


def _add_taps(delayed, current, mode):
    """The two taps' products summed; taps of different heights are refused,
    not broadcast."""
    if delayed.shape != current.shape:
        raise ShapeMismatchError(
            f"k0 products have shape {delayed.shape}, k1 products {current.shape}"
        )
    return mode.add(delayed, current)
