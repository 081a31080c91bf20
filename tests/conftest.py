"""Shared pytest plumbing.

The acceptance tests in ``test_acceptance.py`` record a one-line verdict per
criterion via :func:`record_criterion`; the hook below prints the collected
lines in the terminal summary so they are visible even when output capture is
on.  ``small_configs`` is the Hypothesis strategy for small model configs that
several test modules draw from.
"""

from hypothesis import strategies as st

from qwavenet import ModelConfig


def small_configs():
    return st.builds(
        ModelConfig,
        num_blocks=st.integers(1, 3),
        layers_per_block=st.integers(1, 8),
        channels=st.integers(1, 32),
        quant_levels=st.integers(2, 512),
        sample_rate=st.integers(1, 48000),
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
