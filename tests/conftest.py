"""Shared pytest plumbing.

The acceptance tests in ``test_acceptance.py`` record a one-line verdict per
criterion via :func:`record_criterion`; the hook below prints the collected
lines in the terminal summary so they are visible even when output capture is
on.  ``small_configs`` is the Hypothesis strategy for small model configs that
several test modules draw from, and ``expected_op_counts`` gives the
``OpStats`` a run of either generator must record.
"""

from hypothesis import strategies as st

from qwavenet import ModelConfig, OpStats, validate_config


def small_configs():
    return st.builds(
        ModelConfig,
        num_blocks=st.integers(1, 3),
        layers_per_block=st.integers(1, 8),
        channels=st.integers(1, 32),
        quant_levels=st.integers(2, 512),
        sample_rate=st.integers(1, 48000),
    )


def expected_op_counts(cfg, steps):
    """The ``OpStats`` of ``steps`` network passes: (queue path, full-history path).

    With L layers, C = Σ 2·out·in over them and F = levels·channels for the
    readout, a queue step makes 2L + 1 matvecs and C + F MACs.  The
    full-history path's step t (from 1) re-evaluates t history rows: 2L·t
    matvecs and C·t MACs, plus the readout.
    """
    specs = validate_config(cfg)
    layers = len(specs)
    c = sum(2 * s.out_channels * s.in_channels for s in specs)
    f = cfg.quant_levels * cfg.channels
    rows = steps * (steps + 1) // 2
    return (
        OpStats((2 * layers + 1) * steps, (c + f) * steps),
        OpStats(2 * layers * rows + steps, c * rows + f * steps),
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
