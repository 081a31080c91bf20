"""Autoregressive sample-by-sample generation.

One time step is: scalar input -> layer sweep (every dilated layer in
block-major order, each reading its queue and pushing its input) -> fully
connected projection to one logit per quantization bin -> argmax -> dequantize
-> feed the result back as the next input.  Softmax is skipped entirely:
argmax of logits equals argmax of softmax(logits) and keeps generation
deterministic.

Three drivers share that step:

* ``generate`` — the queue-based generator, O(layers) matvecs per sample;
* ``generate_naive`` — recomputes every layer activation from the full input
  history each step (no queues).  Its per-sample cost grows with time; it
  exists as the reference the queue path must match exactly;
* ``teacher_forced_layer_outputs`` — drives the network with a given input
  sequence instead of its own output, recording layer activations, which
  isolates arithmetic error from autoregressive divergence when comparing
  numeric modes.

Seed samples warm the queues before generation: they are pushed through the
network, their outputs discarded except the last, which becomes the first
generation input.  An empty seed means a single zero sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import DEFAULT_PARALLELISM, ParallelismParams, matvec
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
    v = (np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0) + 1.0) / 2.0 * (levels - 1)
    bins = np.floor(v + 0.5).astype(np.int64)  # v >= 0: half-up == half-away
    return int(bins) if bins.ndim == 0 else bins


def dequantize(b, levels: int):
    """Bin index back to its lattice point in [-1, 1]."""
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    b = np.asarray(b)
    if np.any(b < 0) or np.any(b > levels - 1):
        raise ValueError(f"bin out of range [0, {levels - 1}]")
    out = 2.0 * b.astype(np.float64) / (levels - 1) - 1.0
    return float(out) if out.ndim == 0 else out


def fc_forward(W, b, x, p=DEFAULT_PARALLELISM, mode=_REAL, stats=None):
    """Final projection: logits[j] = sum_i x[i] W[i, j] + b[j].

    W is stored input-major (in_dim, out_dim); this is the vector-matrix
    orientation, evaluated as an engine matvec on the transpose, which the
    engine reads in place.
    """
    return matvec(np.asarray(W).T, x, bias=b, p=p, mode=mode, stats=stats)


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


def _normalize_layer_params(layer_params, specs):
    if layer_params is None:
        return default_layer_params(specs)
    if isinstance(layer_params, ParallelismParams):
        return tuple(layer_params for _ in specs)
    params = tuple(layer_params)
    if len(params) != len(specs):
        raise ValueError(f"expected {len(specs)} per-layer params, got {len(params)}")
    return params


class _Session:
    """A configured model lowered into one numeric mode: native-format
    kernels and FC weight, fresh layer queues in sweep order.

    Each (out, in) matrix is lowered once into input-major storage and kept
    as the (out, in) view of it, whose transpose is the contiguous layout the
    engine reads; no matvec copies a weight.
    """

    def __init__(self, cfg: ModelConfig, ws: WeightSet, mode, layer_params, fc_params):
        ws.validate(cfg)
        self.cfg = cfg
        self.mode = mode
        self.specs = validate_config(cfg)
        self.params = _normalize_layer_params(layer_params, self.specs)
        self.fc_params = fc_params

        def lower(w):
            return mode.from_real(np.ascontiguousarray(w.T)).T

        self.kernels = [(lower(k0), lower(k1)) for k0, k1 in ws.kernels]
        self.fc_wt = lower(ws.fc_weight.T)
        self.fc_b = mode.from_real(ws.fc_bias)
        self.layers = [LayerState.fresh(spec, dtype=mode.dtype) for spec in self.specs]

    def forward(self, x_scalar: float, stats=None):
        """One full network pass on a scalar input; returns native logits.

        Every queue receives exactly one push.
        """
        mode = self.mode
        cur = mode.from_real(np.array([x_scalar], dtype=np.float64))
        for layer, (k0, k1), p in zip(self.layers, self.kernels, self.params):
            cur = dilated_conv_step(layer, cur, k0, k1, p=p, mode=mode, stats=stats)
        return matvec(self.fc_wt, cur, bias=self.fc_b, p=self.fc_params, mode=mode, stats=stats)


def _check_seed(seed_samples) -> list[float]:
    seed = [float(s) for s in (seed_samples if seed_samples is not None else [])]
    if any(not -1.0 <= s <= 1.0 for s in seed):
        raise ValueError("seed samples must lie in [-1, 1]")
    return seed or [0.0]


def generate(
    cfg: ModelConfig,
    ws: WeightSet,
    seed_samples=None,
    n: int = 1,
    mode=_REAL,
    layer_params=None,
    fc_params=DEFAULT_PARALLELISM,
    stats=None,
    logit_sink=None,
) -> Waveform:
    """Generate ``n`` samples autoregressively with queue-cached layers.

    Identical (cfg, ws, seed, n, mode) always yields an identical waveform.
    When ``logit_sink`` is a list, the real-valued logits of every emitted
    sample are appended to it.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    seed = _check_seed(seed_samples)
    session = _Session(cfg, ws, mode, layer_params, fc_params)
    levels = cfg.quant_levels

    for s in seed:
        logits = session.forward(s, stats)
    x = dequantize(argmax_sample(logits), levels)

    bins = np.empty(n, dtype=np.int64)
    for i in range(n):
        logits = session.forward(x, stats)
        if logit_sink is not None:
            logit_sink.append(session.mode.to_real(logits))
        b = argmax_sample(logits)
        bins[i] = b
        x = dequantize(b, levels)

    return Waveform(samples=dequantize(bins, levels), bins=bins, sample_rate=cfg.sample_rate)


def generate_naive(
    cfg: ModelConfig,
    ws: WeightSet,
    seed_samples=None,
    n: int = 1,
    mode=_REAL,
    layer_params=None,
    fc_params=DEFAULT_PARALLELISM,
    stats=None,
    logit_sink=None,
) -> Waveform:
    """Reference generator: no queues, no reuse.

    Every step it re-evaluates the entire layer stack over the entire input
    history and reads off the newest activation, so per-sample work grows
    with the time index.  Output contract matches ``generate`` exactly.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    seed = _check_seed(seed_samples)
    session = _Session(cfg, ws, mode, layer_params, fc_params)
    levels = cfg.quant_levels
    mode_ = session.mode

    history = mode_.zeros((0, 1))

    def forward(x_scalar: float):
        nonlocal history
        step_in = mode_.from_real(np.array([[x_scalar]], dtype=np.float64))
        history = np.concatenate([history, step_in], axis=0)
        act = history
        for spec, (k0, k1), p in zip(session.specs, session.kernels, session.params):
            lin = naive_dilated_conv_sequence(act, k0, k1, spec.dilation, p=p, mode=mode_, stats=stats)
            act = mode_.tanh(lin)
        return matvec(session.fc_wt, act[-1], bias=session.fc_b, p=session.fc_params, mode=mode_, stats=stats)

    for s in seed:
        logits = forward(s)
    x = dequantize(argmax_sample(logits), levels)

    bins = np.empty(n, dtype=np.int64)
    for i in range(n):
        logits = forward(x)
        if logit_sink is not None:
            logit_sink.append(mode_.to_real(logits))
        b = argmax_sample(logits)
        bins[i] = b
        x = dequantize(b, levels)

    return Waveform(samples=dequantize(bins, levels), bins=bins, sample_rate=cfg.sample_rate)


@dataclass
class TeacherForcedTrace:
    """Per-step network record under a forced input sequence.

    layer_outputs maps global layer index (0-based, sweep order) to a
    (steps, out_channels) float64 activation trace; bins/samples hold the
    model's per-step predictions, which are never fed back.
    """

    layer_outputs: dict = field(default_factory=dict)
    bins: np.ndarray = None
    samples: np.ndarray = None


def teacher_forced_layer_outputs(
    cfg: ModelConfig,
    ws: WeightSet,
    inputs,
    mode=_REAL,
    layer_params=None,
    fc_params=DEFAULT_PARALLELISM,
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
    if np.any(inputs < -1.0) or np.any(inputs > 1.0):
        raise ValueError("input samples must lie in [-1, 1]")

    session = _Session(cfg, ws, mode, layer_params, fc_params)
    n_layers = len(session.specs)
    if record_layers is None:
        record_layers = range(n_layers)
    record_layers = sorted(set(int(i) for i in record_layers))
    if record_layers and not 0 <= record_layers[0] <= record_layers[-1] < n_layers:
        raise ValueError(f"record_layers out of range [0, {n_layers - 1}]")

    steps = inputs.size
    trace = TeacherForcedTrace(
        layer_outputs={
            i: np.empty((steps, session.specs[i].out_channels), dtype=np.float64)
            for i in record_layers
        },
        bins=np.empty(steps, dtype=np.int64),
    )
    recorded = set(record_layers)

    mode_ = session.mode
    for t in range(steps):
        cur = mode_.from_real(np.array([inputs[t]], dtype=np.float64))
        for i, (layer, (k0, k1), p) in enumerate(
            zip(session.layers, session.kernels, session.params)
        ):
            cur = dilated_conv_step(layer, cur, k0, k1, p=p, mode=mode_, stats=stats)
            if i in recorded:
                trace.layer_outputs[i][t] = mode_.to_real(cur)
        logits = matvec(
            session.fc_wt, cur, bias=session.fc_b, p=session.fc_params, mode=mode_, stats=stats
        )
        trace.bins[t] = argmax_sample(logits)

    trace.samples = dequantize(trace.bins, cfg.quant_levels)
    return trace
