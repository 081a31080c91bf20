"""Autoregressive sample-by-sample generation.

One time step is: scalar input -> layer sweep (every dilated layer in
block-major order, each reading its queue and pushing its input) -> fully
connected projection to one logit per quantization bin -> argmax -> dequantize
-> feed the result back as the next input.  Softmax is skipped entirely:
argmax of logits equals argmax of softmax(logits) and keeps generation
deterministic.

One step loop runs every driver.  Its inputs come in two phases: a forced
sequence first, then samples fed back from the model's own argmax.  Its
backend is one of two network passes:

* ``_Session.forward`` — the queue path, O(layers) matvecs per sample;
* ``_Session.forward_naive`` — recomputes every layer activation from the
  full input history each step (no queues).  Its per-sample cost grows with
  time; it exists as the reference the queue path must match exactly.

``generate`` forces the seed samples, then feeds back ``n`` samples through
the queue path; ``generate_naive`` does the same through the full-history
path.  ``teacher_forced_layer_outputs`` forces a given input sequence and
feeds nothing back, recording layer activations, which isolates arithmetic
error from autoregressive divergence when comparing numeric modes.

Seed samples warm the queues before generation: their argmax outputs are
discarded except the last, which becomes the first generation input.  An
empty seed means a single zero sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .engine import DEFAULT_PARALLELISM, ParallelismParams, matvec
from .fixedpoint import _round_half_away_f64
from .model import ModelConfig, validate_config
from .numerics import RealMode
from .queues import LayerState, dilated_conv_step, naive_dilated_conv_sequence
from .weights import WeightSet

_REAL = RealMode()

SCALAR_PARALLELISM = ParallelismParams(1, 1)


# ---------------------------------------------------------------------------
# Quantization between real samples in [-1, 1] and bin indices.


def quantize(x, levels: int):
    """Map reals (clamped to [-1, 1]) onto bins 0 .. levels-1.

    bin = round((x + 1) / 2 * (levels - 1)), ties away from zero — so 0.0
    with 256 levels lands on bin 128, not 127.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    v = (np.clip(x, -1.0, 1.0) + 1.0) / 2.0 * (levels - 1)
    bins = _round_half_away_f64(v).astype(np.int64)
    return int(bins) if bins.ndim == 0 else bins


def dequantize(b, levels: int):
    """Bin index back to its lattice point in [-1, 1]."""
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    b = np.asarray(b)
    if b.dtype.kind not in "iu":
        raise ValueError(f"bins must be integers, got dtype {b.dtype}")
    if np.any(b < 0) or np.any(b > levels - 1):
        raise ValueError(f"bin out of range [0, {levels - 1}]")
    out = 2.0 * b.astype(np.float64) / (levels - 1) - 1.0
    return float(out) if out.ndim == 0 else out


def argmax_sample(logits) -> int:
    """Index of the largest logit; ties go to the lowest index."""
    arr = np.asarray(logits)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("argmax_sample needs a non-empty 1-D logit vector")
    if not np.isfinite(arr).all():
        raise ValueError("argmax_sample got non-finite logits")
    return int(np.argmax(arr))


# ---------------------------------------------------------------------------
# Session plumbing.


@dataclass(frozen=True)
class Waveform:
    """Generated audio: real samples on the quantization lattice plus the
    bin indices they came from."""

    samples: np.ndarray
    bins: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.shape != self.bins.shape or self.samples.ndim != 1:
            raise ValueError(
                f"samples/bins must be equal-length 1-D, got "
                f"{self.samples.shape} vs {self.bins.shape}"
            )

    def __len__(self) -> int:
        return self.samples.shape[0]


def default_layer_params(layer_specs) -> tuple[ParallelismParams, ...]:
    """Per-layer engine parallelism: (8, 4) everywhere except single-channel
    input layers, where there is nothing to partition — those get (1, 1)."""
    return tuple(
        SCALAR_PARALLELISM if spec.in_channels == 1 else DEFAULT_PARALLELISM
        for spec in layer_specs
    )


class _Session:
    """A configured model lowered into one numeric mode: native-format
    kernels and FC weight, fresh layer queues in sweep order, and an empty
    input history for the full-history backend.

    Each (out, in) matrix is lowered once into input-major storage and kept
    as the (out, in) view of it, whose transpose is the contiguous layout the
    engine reads; no matvec copies a weight.  Layers run at
    ``default_layer_params``, the FC layer at ``DEFAULT_PARALLELISM``.
    """

    def __init__(self, cfg: ModelConfig, ws: WeightSet, mode):
        ws.validate(cfg)
        self.cfg = cfg
        self.mode = mode
        self.specs = validate_config(cfg)
        self.params = default_layer_params(self.specs)

        def lower(w):
            return mode.from_real(np.ascontiguousarray(w.T)).T

        self.kernels = [(lower(k0), lower(k1)) for k0, k1 in ws.kernels]
        self.fc_wt = lower(ws.fc_weight.T)
        self.fc_b = mode.from_real(ws.fc_bias)
        self.layers = [LayerState.fresh(spec, dtype=mode.dtype) for spec in self.specs]
        self.history = mode.zeros((0, 1))

    def forward(self, x_scalar: float, stats=None, outputs=None):
        """One full network pass on a scalar input; returns native logits.

        Every queue receives exactly one push.  ``outputs`` maps a layer
        index to an iterator over writable float64 rows; each pass writes
        that layer's output, in the real domain, into the iterator's next row.
        """
        mode = self.mode
        cur = mode.from_real(np.array([x_scalar], dtype=np.float64))
        for i, (layer, (k0, k1), p) in enumerate(zip(self.layers, self.kernels, self.params)):
            cur = dilated_conv_step(layer, cur, k0, k1, p=p, mode=mode, stats=stats)
            if outputs is not None and i in outputs:
                next(outputs[i])[:] = mode.to_real(cur)
        return matvec(self.fc_wt, cur, bias=self.fc_b, mode=mode, stats=stats)

    def forward_naive(self, x_scalar: float, stats=None):
        """``forward`` without queues: appends the input to the history,
        re-evaluates the whole layer stack over it, and projects the newest
        activation."""
        mode = self.mode
        step_in = mode.from_real(np.array([[x_scalar]], dtype=np.float64))
        self.history = act = np.concatenate([self.history, step_in], axis=0)
        for spec, (k0, k1), p in zip(self.specs, self.kernels, self.params):
            lin = naive_dilated_conv_sequence(act, k0, k1, spec.dilation, p=p, mode=mode, stats=stats)
            act = mode.tanh(lin)
        return matvec(self.fc_wt, act[-1], bias=self.fc_b, mode=mode, stats=stats)


def _run(session: _Session, backend, forced, n: int, stats=None, logit_sink=None) -> np.ndarray:
    """The step loop every driver runs; returns the argmax bin of each step.

    Step t's input is ``forced[t]`` for the forced steps, then the
    dequantized bin of step t - 1 for ``n`` fed-back steps.  ``backend`` is
    the network pass, ``_Session.forward`` or ``_Session.forward_naive``,
    called as ``backend(session, x, stats)``.  When ``logit_sink`` is a list,
    the real-valued logits of every fed-back step are appended to it.
    """
    levels = session.cfg.quant_levels
    n_forced = len(forced)
    bins = np.empty(n_forced + n, dtype=np.int64)
    b = None
    for t in range(bins.size):
        x = forced[t] if t < n_forced else dequantize(b, levels)
        logits = backend(session, x, stats)
        if logit_sink is not None and t >= n_forced:
            logit_sink.append(session.mode.to_real(logits))
        b = bins[t] = argmax_sample(logits)
    return bins


def _check_in_range(samples, what: str) -> None:
    """Refuse samples outside [-1, 1]; NaN fails both bounds, so it is refused too."""
    samples = np.asarray(samples, dtype=np.float64)
    if not ((samples >= -1.0) & (samples <= 1.0)).all():
        raise ValueError(f"{what} must lie in [-1, 1]")


def _check_seed(seed_samples) -> list[float]:
    seed = [float(s) for s in (seed_samples if seed_samples is not None else [])]
    _check_in_range(seed, "seed samples")
    return seed or [0.0]


def _generate(backend, cfg, ws, seed_samples, n, mode, stats, logit_sink) -> Waveform:
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    seed = _check_seed(seed_samples)
    bins = _run(_Session(cfg, ws, mode), backend, seed, n, stats, logit_sink)[len(seed):]
    return Waveform(
        samples=dequantize(bins, cfg.quant_levels), bins=bins, sample_rate=cfg.sample_rate
    )


def generate(
    cfg: ModelConfig,
    ws: WeightSet,
    seed_samples=None,
    n: int = 1,
    mode=_REAL,
    stats=None,
    logit_sink=None,
) -> Waveform:
    """Generate ``n`` samples autoregressively with queue-cached layers.

    Identical (cfg, ws, seed, n, mode) always yields an identical waveform.
    When ``logit_sink`` is a list, the real-valued logits of every emitted
    sample are appended to it.
    """
    return _generate(_Session.forward, cfg, ws, seed_samples, n, mode, stats, logit_sink)


def generate_naive(
    cfg: ModelConfig,
    ws: WeightSet,
    seed_samples=None,
    n: int = 1,
    mode=_REAL,
    stats=None,
    logit_sink=None,
) -> Waveform:
    """Reference generator: no queues, no reuse.

    Every step it re-evaluates the entire layer stack over the entire input
    history and reads off the newest activation, so per-sample work grows
    with the time index.  Output contract matches ``generate`` exactly.
    """
    return _generate(_Session.forward_naive, cfg, ws, seed_samples, n, mode, stats, logit_sink)


@dataclass(frozen=True)
class TeacherForcedTrace:
    """Per-step network record under a forced input sequence.

    layer_outputs maps global layer index (0-based, sweep order) to a
    (steps, out_channels) float64 activation trace; bins/samples hold the
    model's per-step predictions, which are never fed back.
    """

    layer_outputs: dict
    bins: np.ndarray
    samples: np.ndarray


def teacher_forced_layer_outputs(
    cfg: ModelConfig,
    ws: WeightSet,
    inputs,
    mode=_REAL,
    record_layers=None,
    stats=None,
) -> TeacherForcedTrace:
    """Drive the network with ``inputs`` (no feedback), recording activations.

    ``record_layers`` limits which global layer indices are traced (all by
    default); traces are returned in the real domain whatever the mode.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 1 or inputs.size == 0:
        raise ValueError("inputs must be a non-empty 1-D sample sequence")
    _check_in_range(inputs, "input samples")

    session = _Session(cfg, ws, mode)
    n_layers = len(session.specs)
    if record_layers is None:
        record_layers = range(n_layers)
    record_layers = sorted(set(int(i) for i in record_layers))
    if record_layers and not 0 <= record_layers[0] <= record_layers[-1] < n_layers:
        raise ValueError(f"record_layers out of range [0, {n_layers - 1}]")

    layer_outputs = {
        i: np.empty((inputs.size, session.specs[i].out_channels), dtype=np.float64)
        for i in record_layers
    }
    rows = {i: iter(trace) for i, trace in layer_outputs.items()}
    bins = _run(session, partial(_Session.forward, outputs=rows), inputs, 0, stats)
    return TeacherForcedTrace(layer_outputs, bins, dequantize(bins, cfg.quant_levels))
