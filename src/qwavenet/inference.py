"""Autoregressive sample-by-sample generation.

One time step is: scalar input -> layer sweep (every dilated layer in
block-major order applies both taps to its input in one stacked matvec, adds
the delayed tap's product of its input from d steps ago, kept in its ring,
and rings the new one) -> fully connected projection to one logit per
quantization bin -> argmax -> dequantize -> feed the result back as the next
input.  Softmax is skipped entirely: argmax of logits equals argmax of
softmax(logits) and keeps generation deterministic.

One step loop runs every driver.  Its inputs come in two phases: a forced
sequence first, then samples fed back from the model's own argmax.  The
loop keeps them in the mode's native representation, in one (steps, 1)
input sequence converted once per run, and calls its backend, one of two
network passes, as ``backend(session, xs)`` on the sequence so far:

* ``_Session.forward`` — the queue path, O(layers) matvecs per sample, one
  prepared matvec per layer plus the readout;
* ``_Session.forward_naive`` — recomputes every layer activation from the
  full input history each step (no queues).  Its per-sample cost grows with
  time; it exists as the reference the queue path must match exactly.

``generate`` forces the seed samples, then feeds back ``n`` samples through
the queue path; ``generate_naive`` does the same through the full-history
path.  ``teacher_forced_layer_outputs`` forces a given input sequence and
feeds nothing back, recording layer activations, which isolates arithmetic
error from autoregressive divergence when comparing numeric modes.

Seed samples warm the rings before generation: their argmax outputs are
discarded except the last, which becomes the first generation input.  An
empty seed means a single zero sample.  Seeds and forced inputs pass one
check: a 1-D sequence of reals in [-1, 1].

Each check runs where its fact is established.  ``_run`` converts a run's
inputs once, and ``forward`` checks each step's newest input once with the
mode's ``step_input`` (native, and |x_raw| <= 2^f in fixed point); the
layer outputs are ``tanh``'s, within that bound by its docstring.  So the
session's prepared matvecs (``_prepare``) check nothing: in fixed point, a
matrix whose static row bound at 2^f fits runs the shortcut rung alone; one
whose products cannot clip at 2^f (no weight raw is raw_min) runs the exact
lanes, or their fold when the lane test fails, with no scan; any other
runs the engine's kernel, whose ``mac`` scans its input.  On the bundle
weights a generated step so scans only its newest input.  The public
engine entry points keep every check for direct callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .engine import DEFAULT_PARALLELISM, ParallelismParams, _kernel, _lower, _tree_reduce
from .model import _FIELD_MAX, ModelConfig, validate_config
from .numerics import FixedMode, RealMode, _round_half_away_f64
from .queues import naive_dilated_conv_sequence
from .weights import WeightSet

_REAL = RealMode()


# ---------------------------------------------------------------------------
# Quantization between real samples in [-1, 1] and bin indices.


def _check_levels(levels) -> None:
    """A level count is an int (``FxFormat``'s rule) in [2, 2**32 - 1], the
    ``ModelConfig`` field bound, below which float64 holds every bin exactly."""
    if type(levels) is not int:
        raise TypeError(f"levels must be an int, got {levels!r}")
    if not 2 <= levels <= _FIELD_MAX:
        raise ValueError(f"levels must be in [2, {_FIELD_MAX}], got {levels}")


def quantize(x, levels: int):
    """Map reals (clamped to [-1, 1]) onto bins 0 .. levels-1.

    bin = round((x + 1) / 2 * (levels - 1)), ties away from zero — so 0.0
    with 256 levels lands on bin 128, not 127.
    """
    _check_levels(levels)
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    v = (np.clip(x, -1.0, 1.0) + 1.0) / 2.0 * (levels - 1)
    bins = _round_half_away_f64(v).astype(np.int64)
    return int(bins) if bins.ndim == 0 else bins


def dequantize(b, levels: int):
    """Bin index back to its lattice point in [-1, 1]."""
    _check_levels(levels)
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
        ParallelismParams(1, 1) if spec.in_channels == 1 else DEFAULT_PARALLELISM
        for spec in layer_specs
    )


@dataclass
class OpStats:
    """Running operation counters of one session's network passes: matvecs,
    and MACs (rows × columns per matvec)."""

    matvec_calls: int = 0
    mac_ops: int = 0

    def record(self, rows: int, cols: int, n_vectors: int = 1) -> None:
        self.matvec_calls += n_vectors
        self.mac_ops += rows * cols * n_vectors


class _Session:
    """A configured model lowered into one numeric mode: native-format
    layer matrices and FC weight with its bias, one zeroed product ring per
    layer in sweep order (``mode.zeros``: float64, or int32 raws in fixed
    point), and the run's ``OpStats``, given or its own.  The session
    always counts, and only it does: the engine's matvecs are pure
    functions of their operands, so each backend records its own calls.
    It keeps no inputs: each backend reads the run's input sequence from
    ``_run``.

    Each (out, in) matrix is lowered once, input-major and dealt onto the
    lanes of the layer that reads it, with the mode's static facts (the
    engine's lowered-matrix record); no matvec copies a weight or rescans
    it.  Layers run at ``default_layer_params``, the FC layer at
    ``DEFAULT_PARALLELISM``.  Each backend lowers only what it reads:
    ``forward`` a layer's stacked taps [k1; k0], ``forward_naive`` its
    (k0, k1) pair.  Each layer's taps and the readout are also prepared
    once (``_prepare``) as the matvec a step applies to one vector.

    Layer i's ring holds d = dilation rows of k0 products, one per input
    the layer received in the last d steps (zeros before that), so a layer
    with one input channel keeps out_channels values per row, not one.
    Every ring advances once per step, so the step index indexes them all:
    at step t, row t mod d holds k0 times the input from d steps ago.
    """

    def __init__(self, cfg: ModelConfig, ws: WeightSet, mode, stats=None):
        ws.validate(cfg)
        self.cfg = cfg
        self.ws = ws
        self.mode = mode
        self.stats = OpStats() if stats is None else stats
        self.specs = validate_config(cfg)
        self.params = default_layer_params(self.specs)
        self.fc_wt = self._lower_real(
            ws.fc_weight.T, DEFAULT_PARALLELISM, mode.from_real(ws.fc_bias)
        )
        self.readout = _prepare(self.fc_wt)
        self.rings = [mode.zeros((s.dilation, s.out_channels)) for s in self.specs]

    def _lower_real(self, w, p, bias=None):
        return _lower(self.mode.from_real(w), p.num_parallel_in, self.mode, bias)

    @cached_property
    def taps(self):
        """Per layer, [k1; k0] lowered as one (2·out, in) matrix.  Each half is
        converted on its own, which keeps lowering's temporaries, and so its
        peak memory, at one kernel's size."""
        mode = self.mode
        return [
            _lower(
                np.concatenate([mode.from_real(k1), mode.from_real(k0)]), p.num_parallel_in, mode
            )
            for (k0, k1), p in zip(self.ws.kernels, self.params)
        ]

    @cached_property
    def steps(self):
        """Per layer, ``_prepare`` of its stacked taps."""
        return [_prepare(taps) for taps in self.taps]

    @cached_property
    def kernels(self):
        """Per layer, the lowered (k0, k1) pair the full-history pass reads."""
        return [
            (self._lower_real(k0, p), self._lower_real(k1, p))
            for (k0, k1), p in zip(self.ws.kernels, self.params)
        ]

    def forward(self, xs, observe=None):
        """One full network pass on the newest input of ``xs``, the run's
        native (t + 1, 1) input sequence so far; returns native logits.

        Each layer makes one stacked matvec on its input: the k1 half adds to
        the ring row written d steps ago, and the k0 half takes that row's
        place, row t mod d.  Engine rows are independent lanes, so each half
        has its own matvec's bits, and the call is recorded as two matvecs.
        The newest input is checked by ``mode.step_input`` before any ring
        row is written.
        When given, ``observe(t, i, out)`` is called after each layer, in
        sweep order, with the step index, the layer's index and its output in
        the mode's native representation.
        """
        mode, stats, t = self.mode, self.stats, len(xs) - 1
        cur = mode.step_input(xs[-1])
        for i, (step, ring, spec) in enumerate(zip(self.steps, self.rings, self.specs)):
            both = step(cur)
            rows = spec.out_channels
            stats.record(rows, spec.in_channels, 2)
            row = ring[t % spec.dilation]
            cur = mode.tanh(mode.add(row, both[:rows]))
            row[:] = both[rows:]
            if observe is not None:
                observe(t, i, cur)
        return self._readout(cur)

    def forward_naive(self, xs):
        """``forward`` without queues: re-evaluates the whole layer stack over
        the input sequence ``xs`` and projects the newest activation."""
        mode, stats, act = self.mode, self.stats, xs
        for spec, (k0, k1), p in zip(self.specs, self.kernels, self.params):
            lin = naive_dilated_conv_sequence(act, k0, k1, spec.dilation, p=p, mode=mode)
            act = mode.tanh(lin)
            stats.record(*k0.shape, 2 * len(act))
        return self._readout(act[-1])

    def _readout(self, act):
        """The FC projection of the last layer's output: native logits, one
        recorded matvec."""
        self.stats.record(*self.fc_wt.shape)
        return self.readout(act)


def _prepare(w):
    """The matvec a step applies to lowered matrix ``w``, as a function of
    one generated (N,) vector, built once from ``mode.prepare``'s rung: the
    shortcut alone; the exact lanes, or their fold, through the engine's
    ``_tree_reduce``; or the engine's ``_kernel``, whose fixed-point ladder
    scans the input.  Then the bias.  It gives ``matvec``'s bits without
    its checks, whose facts the session holds (see the module docstring)."""
    mode = w.mode
    rung, fn = mode.prepare(w)
    if rung == "lanes":
        step = lambda x: _tree_reduce(fn(x), mode)[:, 0]
    else:
        step = fn or (lambda x: _kernel(w, x[:, None])[:, 0])
    if w.bias is None:
        return step
    return lambda x: mode.add(step(x), w.bias)


def _run(session: _Session, backend, forced, n: int, logit_sink=None) -> np.ndarray:
    """The step loop every driver runs; returns the argmax bin of each step.

    Step t's input is ``forced[t]`` for the forced steps, then the
    dequantized bin of step t - 1 for ``n`` fed-back steps.  Inputs are
    converted to the mode once per run: the forced samples in one
    ``from_real`` call, and every bin through the run's lattice, the native
    value of each level's dequantized sample, so a fed-back step only
    copies one lattice row.  ``backend`` is the network pass,
    ``_Session.forward`` or ``_Session.forward_naive``, called as
    ``backend(session, xs[: t + 1])`` on the native input sequence.  When
    ``logit_sink`` is a list, the real-valued logits of every fed-back step
    are appended to it.
    """
    mode, levels, n_forced = session.mode, session.cfg.quant_levels, len(forced)
    lattice = mode.from_real(dequantize(np.arange(levels), levels))
    xs = mode.from_real(np.concatenate([forced, np.zeros(n)]))[:, None]
    bins = np.empty(n_forced + n, dtype=np.int64)
    b = None
    for t in range(bins.size):
        if t >= n_forced:
            xs[t] = lattice[b]
        logits = backend(session, xs[: t + 1])
        if logit_sink is not None and t >= n_forced:
            logit_sink.append(mode.to_real(logits))
        b = bins[t] = argmax_sample(logits)
    return bins


def _check_samples(samples, what: str) -> np.ndarray:
    """``samples`` as float64, refused unless a 1-D sequence of values in
    [-1, 1]; NaN fails both bounds, so it is refused too."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"{what} must be a 1-D sample sequence, got shape {samples.shape}")
    if not ((samples >= -1.0) & (samples <= 1.0)).all():
        raise ValueError(f"{what} must lie in [-1, 1]")
    return samples


def _generate(session: _Session, backend, seed_samples, n, logit_sink=None) -> Waveform:
    """Force the seed through ``backend`` on ``session``, then feed back ``n`` samples."""
    if type(n) is not int:
        raise TypeError(f"sample count must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    seed = _check_samples([] if seed_samples is None else seed_samples, "seed samples")
    seed = seed if seed.size else np.zeros(1)
    bins = _run(session, backend, seed, n, logit_sink)[len(seed):]
    cfg = session.cfg
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
    session = _Session(cfg, ws, mode, stats)
    return _generate(session, _Session.forward, seed_samples, n, logit_sink)


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
    session = _Session(cfg, ws, mode, stats)
    return _generate(session, _Session.forward_naive, seed_samples, n, logit_sink)


def static_headroom(session: _Session) -> list[float]:
    """Per layer, in sweep order, for a session in a fixed-point mode: the
    ``FixedMode.generated_headroom`` of its stacked taps, the row bound at
    inputs |x| <= 1 as a share of raw_max, read from the facts the session
    cached when it lowered them.  The stack's S_max is the larger of its two
    kernels', so this is the larger of their bounds.  At most 1, no matvec
    of the layer can saturate on inputs in [-1, 1], and ``_prepare`` gives
    the layer the static shortcut: it is the same decision."""
    mode = session.mode
    if not isinstance(mode, FixedMode):
        raise TypeError(f"static_headroom needs a fixed-point mode, got {mode}")
    return [mode.generated_headroom(taps) for taps in session.taps]


@dataclass(frozen=True)
class TeacherForcedTrace:
    """Per-step network record under a forced input sequence.

    layer_outputs maps global layer index (0-based, sweep order) to a
    (steps, out_channels) float64 activation trace; bins holds the model's
    per-step argmax predictions, which are never fed back (``dequantize``
    turns them into samples).
    """

    layer_outputs: dict
    bins: np.ndarray


def teacher_forced_layer_outputs(
    cfg: ModelConfig,
    ws: WeightSet,
    inputs,
    mode=_REAL,
    record_layers=None,
) -> TeacherForcedTrace:
    """Drive the network with ``inputs`` (no feedback), recording activations.

    ``record_layers`` limits which global layer indices, integers, are traced
    (all by default); traces are returned in the real domain whatever the mode.
    """
    inputs = _check_samples(inputs, "input samples")
    if inputs.size == 0:
        raise ValueError("input samples must not be empty")

    session = _Session(cfg, ws, mode)
    n_layers = len(session.specs)
    layer_outputs = {}
    for i in range(n_layers) if record_layers is None else record_layers:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"record_layers must be integer indices, got {i!r}")
        if not 0 <= i < n_layers:
            raise ValueError(f"record_layers out of range [0, {n_layers - 1}], got {i}")
        layer_outputs[int(i)] = np.empty((inputs.size, session.specs[i].out_channels))

    def record(t, i, out):
        if i in layer_outputs:
            layer_outputs[i][t] = mode.to_real(out)

    bins = _run(session, partial(_Session.forward, observe=record), inputs, 0)
    return TeacherForcedTrace(layer_outputs, bins)
