"""Per-layer cyclic queues and the dilated causal convolution step.

A layer with dilation d needs its input from d steps ago.  Instead of keeping
the whole history, each layer owns a ring buffer of exactly d rows: the slot
at ``head`` is the oldest entry (the d-steps-delayed input), and one
generation step does a single overwrite-and-advance — pop and push fused,
never a shift.

``naive_dilated_conv_sequence`` evaluates the same convolution directly from
a full input history.  It exists as the reference path: queue-based and
history-based evaluation must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DEFAULT_PARALLELISM, ShapeMismatchError, matvec, matvec_cols
from .model import LayerSpec
from .numerics import RealMode

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
        if np.issubdtype(self.storage.dtype, np.integer) and np.issubdtype(
            v.dtype, np.floating
        ):
            raise TypeError("cannot push real values into a raw fixed-point queue")
        self.storage[self.head] = v
        self.head = (self.head + 1) % self.length

    def __repr__(self) -> str:
        return f"CyclicQueue(length={self.length}, channels={self.channels}, head={self.head})"


@dataclass
class LayerState:
    """One layer's mutable generation state: its queue."""

    queue: CyclicQueue

    @classmethod
    def fresh(cls, spec: LayerSpec, dtype=np.float64) -> "LayerState":
        return cls(queue=CyclicQueue(spec.queue_length, spec.in_channels, dtype=dtype))


def dilated_conv_step(
    state: LayerState, prev_out, k0, k1, p=DEFAULT_PARALLELISM, mode=_REAL, stats=None
):
    """One layer, one time step, via the queue.

    Computes tanh(k0 × (queue front) + k1 × prev_out), then pushes prev_out
    so it surfaces again ``dilation`` steps later.
    """
    delayed = matvec(k0, state.queue.front(), p=p, mode=mode, stats=stats)
    current = matvec(k1, prev_out, p=p, mode=mode, stats=stats)
    out = mode.tanh(mode.add(delayed, current))
    state.queue.push(prev_out)
    return out


def _delayed_history(history, dilation: int):
    """history shifted down by ``dilation`` rows, zero-padded at the start."""
    t, channels = history.shape
    pad = np.zeros((min(dilation, t), channels), dtype=history.dtype)
    if dilation >= t:
        return pad
    return np.concatenate([pad, history[:-dilation]], axis=0)


def naive_dilated_conv_sequence(
    history, k0, k1, dilation: int, p=DEFAULT_PARALLELISM, mode=_REAL, stats=None
):
    """Dilated convolution at every step of the history at once.

    Returns (T, out_channels); row t is k0 × history[t - dilation] + k1 ×
    history[t], with rows before the start of time as zeros and no activation.
    Columns are independent engine lanes, so rows match one-column matvecs.
    """
    history = np.asarray(history)
    if history.ndim != 2 or history.shape[0] < 1:
        raise ShapeMismatchError(f"history must be (T >= 1, channels), got {history.shape}")
    delayed = matvec_cols(k0, _delayed_history(history, dilation).T, p=p, mode=mode, stats=stats)
    current = matvec_cols(k1, history.T, p=p, mode=mode, stats=stats)
    return mode.add(delayed, current).T
