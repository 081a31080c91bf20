"""Span recording and the benchmark's own generation loops.

``queue_generate`` and ``naive_generate`` rebuild ``generate`` and
``generate_naive`` from the package's public calls only (``LayerState.fresh``,
``dilated_conv_step``, ``naive_dilated_conv_sequence``, ``matvec``,
``argmax_sample``, ``dequantize``), with a span around each call into a
layer.  Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` and
written out when the run ends.  The same loops run untraced (``NullTracer``)
as the in-run reference the timed ``generate`` calls are checked against.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from qwavenet import (
    DEFAULT_PARALLELISM,
    LayerState,
    argmax_sample,
    default_layer_params,
    dequantize,
    dilated_conv_step,
    matvec,
    naive_dilated_conv_sequence,
    validate_config,
)

STEP = "inference.step"
WARMUP = "inference.warmup"
NAIVE_STEP = "inference.naive_step"
NAIVE_WARMUP = "inference.naive_warmup"
NAIVE_SEQ = "queues.naive_seq"


def conv_span(i: int) -> str:
    return f"queues.conv_step.L{i:02d}"


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str) -> None:
        self.spans.append([name, perf_counter_ns(), 0, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter_ns()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class NullTracer:
    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass


def lower(cfg, ws, mode):
    """Native kernels, the transposed FC weight and bias, as ``generate`` lowers them."""
    kernels = [(mode.from_real(k0), mode.from_real(k1)) for k0, k1 in ws.kernels]
    fc_wt = mode.from_real(np.ascontiguousarray(ws.fc_weight.T))
    return kernels, fc_wt, mode.from_real(ws.fc_bias)


def queue_generate(cfg, ws, warm, n, mode, tracer, census=None):
    """``generate`` from public calls.

    Returns ``(bins, layers, hidden)``: the emitted bins, the layer states
    after the run, and the last input to the FC layer.  ``census(W, x)``,
    when given, sees the operands of every matvec before it runs.
    """
    specs = validate_config(cfg)
    params = default_layer_params(specs)
    kernels, fc_wt, fc_b = lower(cfg, ws, mode)
    layers = [LayerState.fresh(s, dtype=mode.dtype) for s in specs]
    names = [conv_span(i) for i in range(len(specs))]
    levels = cfg.quant_levels
    begin, end = tracer.begin, tracer.end

    def forward(x):
        cur = mode.from_real(np.array([x], dtype=np.float64))
        for name, layer, (k0, k1), p in zip(names, layers, kernels, params):
            if census is not None:
                census(k0, layer.queue.front())
                census(k1, cur)
            begin(name)
            cur = dilated_conv_step(layer, cur, k0, k1, p=p, mode=mode)
            end()
        if census is not None:
            census(fc_wt, cur)
        begin("inference.fc")
        logits = matvec(fc_wt, cur, bias=fc_b, p=DEFAULT_PARALLELISM, mode=mode)
        end()
        return logits, cur

    begin(f"generate/{mode}")
    for s in warm:
        begin(WARMUP)
        logits, hidden = forward(s)
        end()
    x = dequantize(argmax_sample(logits), levels)
    bins = np.empty(n, dtype=np.int64)
    for i in range(n):
        begin(STEP)
        logits, hidden = forward(x)
        begin("inference.argmax")
        b = argmax_sample(logits)
        end()
        begin("inference.dequantize")
        x = dequantize(b, levels)
        end()
        end()
        bins[i] = b
    end()
    return bins, layers, hidden


def naive_generate(cfg, ws, warm, n, mode, tracer):
    """``generate_naive`` from public calls; returns ``(bins, input_history)``."""
    specs = validate_config(cfg)
    params = default_layer_params(specs)
    kernels, fc_wt, fc_b = lower(cfg, ws, mode)
    levels = cfg.quant_levels
    begin, end = tracer.begin, tracer.end
    history = mode.zeros((0, 1))

    def forward(x):
        nonlocal history
        step_in = mode.from_real(np.array([[x]], dtype=np.float64))
        history = np.concatenate([history, step_in], axis=0)
        act = history
        for spec, (k0, k1), p in zip(specs, kernels, params):
            begin(NAIVE_SEQ)
            lin = naive_dilated_conv_sequence(act, k0, k1, spec.dilation, p=p, mode=mode)
            end()
            begin("numerics.tanh")
            act = mode.tanh(lin)
            end()
        begin("inference.fc")
        logits = matvec(fc_wt, act[-1], bias=fc_b, p=DEFAULT_PARALLELISM, mode=mode)
        end()
        return logits

    begin(f"generate_naive/{mode}")
    for s in warm:
        begin(NAIVE_WARMUP)
        logits = forward(s)
        end()
    x = dequantize(argmax_sample(logits), levels)
    bins = np.empty(n, dtype=np.int64)
    for i in range(n):
        begin(NAIVE_STEP)
        logits = forward(x)
        begin("inference.argmax")
        b = argmax_sample(logits)
        end()
        begin("inference.dequantize")
        x = dequantize(b, levels)
        end()
        end()
        bins[i] = b
    end()
    return bins, history


def step_breakdown(spans, root: str):
    """Per-step self times (µs) of the queue-path steps under root spans named ``root``.

    Returns ``(step_us, parts)``: the step durations, and for each child span
    name the list of its per-step durations; ``parts["inference.glue"]`` is
    each step's duration minus the durations of its children.  Children are
    leaves, so their durations are their self times.
    """
    roots = {i for i, s in enumerate(spans) if s[0] == root}
    steps = {i: [] for i, s in enumerate(spans) if s[0] == STEP and s[3] in roots}
    for s in spans:
        if s[3] in steps:
            steps[s[3]].append(s)
    step_us, parts = [], defaultdict(list)
    for i, children in steps.items():
        total = (spans[i][2] - spans[i][1]) / 1e3
        covered = 0.0
        for name, t0, t1, _ in children:
            parts[name].append((t1 - t0) / 1e3)
            covered += (t1 - t0) / 1e3
        parts["inference.glue"].append(total - covered)
        step_us.append(total)
    return step_us, parts


def total_us(spans, name: str) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name) / 1e3


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of ``values``, by ``statistics.quantiles``."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
