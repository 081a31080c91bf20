"""Shared pytest plumbing.

The acceptance tests in ``test_acceptance.py`` record a one-line verdict per
criterion via :func:`record_criterion`; the hook below prints the collected
lines in the terminal summary so they are visible even when output capture is
on.  ``small_configs`` is the Hypothesis strategy for small model configs that
several test modules draw from, and ``lattice_weights`` snaps random weights
to the fixed<27,8> grid.
"""

import numpy as np
from hypothesis import strategies as st

from qwavenet import ModelConfig, WeightSet, random_weights


def small_configs():
    return st.builds(
        ModelConfig,
        num_blocks=st.integers(1, 3),
        layers_per_block=st.integers(1, 8),
        channels=st.integers(1, 32),
        quant_levels=st.integers(2, 512),
        sample_rate=st.integers(1, 48000),
    )


def lattice_weights(cfg, seed, scale=0.25):
    """Random weights snapped to the fixed<27,8> grid.

    Every value is a multiple of 2**-19 with magnitude at most ``scale``, so
    at the scales used here it is exactly representable in float32, float64,
    and fixed<27,8>.
    """
    ws = random_weights(cfg, seed=seed, scale=scale)

    def snap(a):
        return (np.round(a.astype(np.float64) * 2.0**19) / 2.0**19).astype(np.float32)

    return WeightSet(
        kernels=tuple((snap(k0), snap(k1)) for k0, k1 in ws.kernels),
        fc_weight=snap(ws.fc_weight),
        fc_bias=snap(ws.fc_bias),
    )


_CRITERION_LINES = []


def record_criterion(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"{status}  {name}"
    if detail:
        line += f"  [{detail}]"
    _CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)
