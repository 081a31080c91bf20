"""The bits every numeric mode produces, pinned by digest.

Each case hashes one family of outputs in one mode and compares the hash
with ``bits.json``:

* ``generate`` — bins, samples, real logits and ``OpStats`` — on the bundle
  model (default config, seed 2020, scale 0.25; 5 seed samples, 40
  emitted) and on a 2×4×16 model at weight scale 2.0 (120 emitted), whose
  narrow-format matvecs take the exact lanes and the clipped fold;
* ``generate_naive`` on the small model (60 emitted);
* teacher-forced traces of every layer, plus bins, on both models (24 steps);
* ``static_headroom`` of both models, in fixed-point modes;
* ``matvec_cols`` with a bias over random and extreme operands, p_in 1–8,
  with 1 and 3 columns.

A change that moves bits on purpose re-records the table with
``python tests/record_bits.py`` and says which digests moved and why.
"""

import hashlib
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from qwavenet import (
    ModelConfig,
    OpStats,
    ParallelismParams,
    generate,
    generate_naive,
    matvec_cols,
    parse_mode,
    random_weights,
    teacher_forced_layer_outputs,
)
from qwavenet.inference import _Session, static_headroom

TABLE = Path(__file__).resolve().parent / "bits.json"
MODES = ["real", "fixed<27,8>", "fixed<24,4>", "fixed<16,3>", "fixed<12,4>", "fixed<10,1>", "fixed<8,8>"]
BUNDLE = ModelConfig()
SMALL = ModelConfig(num_blocks=2, layers_per_block=4, channels=16)


@cache
def weights(cfg):
    return random_weights(cfg, seed=2020, scale=0.25) if cfg == BUNDLE else random_weights(cfg, seed=7, scale=2.0)


def digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and little-endian bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(a.dtype.newbyteorder("<"))
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def run_digest(gen, cfg, text, seed_len, n):
    stats, logits = OpStats(), []
    seed = np.random.default_rng([seed_len, n]).uniform(-1.0, 1.0, seed_len)
    wf = gen(cfg, weights(cfg), seed, n=n, mode=parse_mode(text), stats=stats, logit_sink=logits)
    return digest(wf.bins, wf.samples, np.array(logits), [stats.matvec_calls, stats.mac_ops])


def teacher_digest(cfg, text):
    inputs = np.sin(np.linspace(0.0, 9.0, 24)) * 0.9
    trace = teacher_forced_layer_outputs(cfg, weights(cfg), inputs, mode=parse_mode(text))
    return digest(trace.bins, *(trace.layer_outputs[i] for i in sorted(trace.layer_outputs)))


def matvec_digest(text):
    mode = parse_mode(text)
    rng = np.random.default_rng(11)
    real = text == "real"
    lo, hi = (-8.0, 8.0) if real else (mode.fmt.raw_min, mode.fmt.raw_max)

    def random(shape):
        return rng.standard_normal(shape) if real else rng.integers(lo, hi, shape, endpoint=True)

    def extreme(shape):
        return np.where(rng.random(shape) < 0.5, lo, hi)

    outs = []
    for draw in (random, extreme):
        for p_in in (1, 2, 4, 8):
            for cols in (1, 3):
                W, X, b = draw((5, 13)), draw((13, cols)), draw(5)
                outs.append(matvec_cols(W, X, b, p=ParallelismParams(2, p_in), mode=mode))
    return digest(*outs)


CASES = {
    "generate_bundle": lambda text: run_digest(generate, BUNDLE, text, 5, 40),
    "generate_small": lambda text: run_digest(generate, SMALL, text, 5, 120),
    "naive_small": lambda text: run_digest(generate_naive, SMALL, text, 5, 60),
    "teacher_bundle": lambda text: teacher_digest(BUNDLE, text),
    "teacher_small": lambda text: teacher_digest(SMALL, text),
    "headroom": lambda text: digest(
        *(static_headroom(_Session(cfg, weights(cfg), parse_mode(text))) for cfg in (BUNDLE, SMALL))
    ),
    "matvec_cols": matvec_digest,
}


def applies(case, text):
    return case != "headroom" or text != "real"


def compute_table() -> dict:
    return {
        text: {case: fn(text) for case, fn in CASES.items() if applies(case, text)}
        for text in MODES
    }


@pytest.mark.parametrize(
    "case, text",
    [(case, text) for text in MODES for case in CASES if applies(case, text)],
    ids=lambda v: v,
)
def test_bits_match_recorded_digests(case, text):
    recorded = json.loads(TABLE.read_text())[text][case]
    assert CASES[case](text) == recorded
