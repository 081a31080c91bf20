"""End-to-end command-line runs against temp files."""

import csv
import io
import json
import os
import platform
from dataclasses import replace

import numpy as np
import pytest
from conftest import expected_op_counts

from qwavenet import (
    FixedMode,
    ModelConfig,
    RealMode,
    SpectrogramParams,
    WeightSet,
    generate,
    generate_naive,
    log_spectral_distance,
    matvec,
    mse,
    parse_mode,
    queues,
    random_weights,
    read_wav,
    save_config,
    save_weights,
    teacher_forced_layer_outputs,
    write_wav,
)
from qwavenet import cli, inference
from qwavenet.cli import run_cli

TINY = ModelConfig(
    num_blocks=1, layers_per_block=3, channels=6, quant_levels=32, sample_rate=100
)


@pytest.fixture
def model_files(tmp_path):
    cfg_path = tmp_path / "model.json"
    w_path = tmp_path / "weights.bin"
    save_config(TINY, cfg_path)
    save_weights(w_path, random_weights(TINY, seed=11), TINY)
    return cfg_path, w_path


def test_generate_writes_wav_and_report(model_files, tmp_path, capsys):
    cfg_path, w_path = model_files
    out = tmp_path / "out.wav"
    report = tmp_path / "report.json"
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.5",
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert rc == 0
    assert out.stat().st_size == 44 + 2 * 50
    summary = capsys.readouterr().out
    assert "50 samples" in summary and "samples/s" in summary

    data = json.loads(report.read_text())
    assert data["samples_generated"] == 50
    assert data["number_mode"] == "real"
    assert data["throughput_hz"] == pytest.approx(50 / data["wall_time"])
    assert len(data["config_digest"]) == 64
    assert len(data["weights_sha256"]) == 64
    # the single-channel input layer runs scalar, every other layer at (8, 4)
    assert data["layer_params"] == [[1, 1]] + [[8, 4]] * (TINY.total_layers - 1)
    assert data["python"] == platform.python_version()
    assert data["numpy"] == np.__version__
    assert data["cpu_count"] == os.cpu_count()
    assert data["static_headroom"] is None and data["static_shortcut"] is None
    # the timing observer's figures, over the 50 generated steps
    assert len(data["layer_us_median"]) == TINY.total_layers
    assert all(us > 0 for us in data["layer_us_median"])
    assert 0 < data["step_us_p50"] <= data["step_us_p99"]
    # the session's own counts: one zero warm-up step, then the 50 samples
    want = expected_op_counts(TINY, 51)[0]
    assert (data["matvec_calls"], data["mac_ops"]) == (want.matvec_calls, want.mac_ops)

    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.1",
            "--mode", "fixed<27,8>",
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert rc == 0
    data = json.loads(report.read_text())
    headroom = data["static_headroom"]
    assert len(headroom) == TINY.total_layers
    assert all(0 < h < 1 for h in headroom)
    assert data["static_shortcut"] == list(range(TINY.total_layers))
    # read from the run's session, it equals a fresh session's
    fresh = inference._Session(TINY, random_weights(TINY, seed=11), parse_mode("fixed<27,8>"))
    assert headroom == inference.static_headroom(fresh)


@pytest.mark.parametrize("with_report", [False, True], ids=["no-report", "report"])
def test_generate_builds_one_session(model_files, tmp_path, monkeypatch, with_report):
    # one session per run, with or without the report: the L layers' stacked
    # taps and the readout are each lowered once, and the weights validated
    # once on load and once by the session
    calls = {"lower": 0, "validate": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(inference, "_lower", counting("lower", inference._lower))
    monkeypatch.setattr(WeightSet, "validate", counting("validate", WeightSet.validate))
    cfg_path, w_path = model_files
    report = ["--report", str(tmp_path / "run.json")] if with_report else []
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.1",
            "--mode", "fixed<27,8>",
            "--out", str(tmp_path / "out.wav"),
            *report,
        ]
    )
    assert rc == 0
    assert calls == {"lower": TINY.total_layers + 1, "validate": 2}


def test_generate_is_reproducible(model_files, tmp_path):
    cfg_path, w_path = model_files
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    for out in (a, b):
        rc = run_cli(
            [
                "generate",
                "--config", str(cfg_path),
                "--weights", str(w_path),
                "--seconds", "0.3",
                "--out", str(out),
            ]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_fixed_mode(model_files, tmp_path, capsys):
    cfg_path, w_path = model_files
    out = tmp_path / "out.wav"
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.2",
            "--mode", "fixed<27,8>",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "fixed<27,8>" in capsys.readouterr().out
    assert out.exists()


def test_generate_plain_fixed_runs_the_paper_format(model_files, tmp_path):
    cfg_path, w_path = model_files
    report = tmp_path / "report.json"
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.05",
            "--mode", "fixed",
            "--out", str(tmp_path / "out.wav"),
            "--report", str(report),
        ]
    )
    assert rc == 0
    assert json.loads(report.read_text())["number_mode"] == "fixed<27,8>"


def test_generate_rejects_wide_fixed_format(model_files, tmp_path, capsys):
    cfg_path, w_path = model_files
    out = tmp_path / "wide.wav"
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.05",
            "--mode", "fixed<40,8>",
            "--out", str(out),
        ]
    )
    assert rc != 0
    assert "total_bits must be in [2, 27], got 40" in capsys.readouterr().err
    assert not out.exists()


def test_generate_missing_weights(model_files, tmp_path, capsys):
    cfg_path, _ = model_files
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(tmp_path / "nope.bin"),
            "--seconds", "0.1",
            "--out", str(tmp_path / "o.wav"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_generate_zero_length(model_files, tmp_path, capsys):
    cfg_path, w_path = model_files
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.001",
            "--out", str(tmp_path / "o.wav"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_generate_refuses_rate_before_the_run(tmp_path, capsys, monkeypatch):
    # 1 ms at 2**31 Hz is about 2.1 million samples: the rate no WAV can hold
    # must be refused before generation starts, not after it
    def refuse(*args, **kwargs):
        raise AssertionError("session built")

    monkeypatch.setattr(cli, "_Session", refuse)
    cfg = ModelConfig(num_blocks=1, layers_per_block=2, channels=2, quant_levels=4,
                      sample_rate=2**31)
    cfg_path, w_path, out = tmp_path / "model.json", tmp_path / "w.bin", tmp_path / "out.wav"
    save_config(cfg, cfg_path)
    save_weights(w_path, random_weights(cfg, seed=1), cfg)
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.001",
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert "sample_rate must be in" in capsys.readouterr().err
    assert not out.exists()


UNWRITABLE = "not a file path in an existing directory"


@pytest.mark.parametrize(
    "flag, name, problem",
    [
        ("--out", "missing/out.wav", UNWRITABLE),
        ("--report", "missing/run.json", UNWRITABLE),
        ("--out", "", UNWRITABLE),
        ("--report", "out.wav", "--report names the same file as --out"),
        ("--out", "model.json", "--out names the same file as --config"),
        ("--out", "missing/../weights.bin", "--out names the same file as --weights"),
        ("--report", "model.json", "--report names the same file as --config"),
        ("--report", "weights.bin", "--report names the same file as --weights"),
        ("--weights", "model.json", "--weights names the same file as --config"),
    ],
    ids=[
        "out-in-missing-dir",
        "report-in-missing-dir",
        "out-is-a-dir",
        "report-is-out",
        "out-is-config",
        "out-is-weights-by-another-name",
        "report-is-config",
        "report-is-weights",
        "weights-is-config",
    ],
)
def test_generate_refuses_output_paths_it_cannot_write_before_the_run(
    model_files, tmp_path, capsys, monkeypatch, flag, name, problem
):
    # an output path in a missing directory, or naming a directory, and two
    # path flags naming one file, are refused before any session is built:
    # no step runs, no file is left and the inputs are untouched
    def refuse(*args, **kwargs):
        raise AssertionError("session built")

    monkeypatch.setattr(cli, "_Session", refuse)
    cfg_path, w_path = model_files
    inputs = {p: p.read_bytes() for p in model_files}
    paths = {
        "--config": cfg_path,
        "--weights": w_path,
        "--out": tmp_path / "out.wav",
        "--report": tmp_path / "run.json",
    }
    paths[flag] = tmp_path / name
    argv = ["generate", "--seconds", "0.5"]
    for option, path in paths.items():
        argv += [option, str(path)]
    rc = run_cli(argv)
    assert rc == 1
    assert f"{paths[flag]}: {problem}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "weights.bin"]
    assert {p: p.read_bytes() for p in model_files} == inputs


def test_verify_passes(model_files, capsys):
    cfg_path, _ = model_files
    rc = run_cli(["verify", "--config", str(cfg_path), "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == 3
    assert "ok   queue generator vs naive reference, real" in out
    assert "ok   queue generator vs naive reference, fixed<27,8>" in out
    assert "FAIL" not in out


def test_verify_fails_a_one_ulp_real_mode_logit(model_files, capsys, monkeypatch):
    # parity is bit-exact in every mode: a queue generator whose real-mode
    # logits each move by one ulp fails, and fixed point still passes
    forward = inference._Session.forward

    def nudged(self, *args, **kwargs):
        logits = forward(self, *args, **kwargs)
        return np.nextafter(logits, np.inf) if isinstance(self.mode, RealMode) else logits

    monkeypatch.setattr(inference._Session, "forward", nudged)
    cfg_path, _ = model_files
    rc = run_cli(["verify", "--config", str(cfg_path), "--seed", "3"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL queue generator vs naive reference, real" in out
    assert "ok   queue generator vs naive reference, fixed<27,8>" in out


def _off_by_one(W, x, p):
    return matvec(W, x, p=p) + 1


def _off_on_fractions(W, x, p):
    return matvec(W, x, p=p) + (0 if np.array_equal(W, np.round(W)) else 1e-3)


def _shifted_bins(*args, **kwargs):
    wf = generate(*args, **kwargs)
    return replace(wf, bins=wf.bins + 1)


@pytest.mark.parametrize(
    "target, fake, line",
    [
        ("matvec", _off_by_one, "FAIL matvec vs plain matrix product: integer matvec mismatch"),
        ("matvec", _off_on_fractions, "FAIL matvec vs plain matrix product: real matvec deviation"),
        (
            "generate",
            _shifted_bins,
            "FAIL queue generator vs naive reference, real: bin sequences differ",
        ),
    ],
    ids=["integer-matvec", "real-matvec", "bins"],
)
def test_verify_reports_each_failed_check(model_files, capsys, monkeypatch, target, fake, line):
    monkeypatch.setattr(cli, target, fake)
    cfg_path, _ = model_files
    rc = run_cli(["verify", "--config", str(cfg_path), "--seed", "3"])
    assert rc == 1
    assert line in capsys.readouterr().out


def test_shipped_paths_never_build_the_input_queue(model_files, tmp_path, monkeypatch):
    # the input-queue step is a reference for the tests; the CLI and the
    # generators run on the session's rings
    def refuse(*args, **kwargs):
        raise AssertionError("CyclicQueue built")

    monkeypatch.setattr(queues.CyclicQueue, "__init__", refuse)
    cfg_path, w_path = model_files
    assert run_cli(["verify", "--config", str(cfg_path), "--seed", "1"]) == 0
    rc = run_cli(
        [
            "generate",
            "--config", str(cfg_path),
            "--weights", str(w_path),
            "--seconds", "0.2",
            "--out", str(tmp_path / "out.wav"),
        ]
    )
    assert rc == 0
    ws = random_weights(TINY, seed=2)
    for mode in (RealMode(), FixedMode()):
        assert generate_naive(TINY, ws, n=8, mode=mode).bins.shape == (8,)
        trace = teacher_forced_layer_outputs(TINY, ws, np.zeros(8), mode=mode)
        assert len(trace.layer_outputs) == TINY.total_layers


def test_compare_identical_files(tmp_path, capsys):
    rng = np.random.default_rng(16)
    samples = rng.uniform(-1, 1, 2000)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, samples, 16000)
    write_wav(b, samples, 16000)
    rc = run_cli(
        ["compare", "--a", str(a), "--b", str(b), "--window", "256", "--hop", "64"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_samples=2000" in out
    assert "mse=0 " in out
    assert "lsd=0" in out


def test_compare_reports_differences(tmp_path, capsys):
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, 2000)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, x, 16000)
    write_wav(b, np.clip(x + rng.normal(0, 0.05, 2000), -1, 1), 16000)
    rc = run_cli(["compare", "--a", str(a), "--b", str(b), "--window", "256"])
    assert rc == 0
    out = capsys.readouterr().out
    mse_val = float(out.split("mse=")[1].split()[0])
    assert 0.001 < mse_val < 0.01

    # every flag reaches the library: the line is exactly its two metrics
    flags = ["--window", "128", "--hop", "32", "--epsilon", "1e-6"]
    rc = run_cli(["compare", "--a", str(a), "--b", str(b), *flags])
    assert rc == 0
    wa, wb = read_wav(a)[0], read_wav(b)[0]
    lsd = log_spectral_distance(wa, wb, SpectrogramParams(128, 32, epsilon=1e-6))
    assert capsys.readouterr().out == f"n_samples=2000 mse={mse(wa, wb):.6g} lsd={lsd:.6g}\n"


def test_compare_rate_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, np.zeros(600), 16000)
    write_wav(b, np.zeros(600), 8000)
    rc = run_cli(["compare", "--a", str(a), "--b", str(b)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_explore_stdout_contains_reference_row(tmp_path, capsys):
    cfg_path = tmp_path / "model.json"
    save_config(ModelConfig(), cfg_path)
    rc = run_cli(
        ["explore", "--config", str(cfg_path), "--pout-list", "8", "--pin-list", "4"]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == [
        "block",
        "layer",
        "rows",
        "cols",
        "p_out",
        "p_in",
        "mac_count",
        "estimated_cycles",
        "weight_buffer_elems",
    ]
    assert len(rows) == 1 + 28
    # a full-width layer at the 8x4 design point costs 560 cycles
    body = rows[1:]
    full = [r for r in body if r[2] == "128" and r[3] == "128"]
    assert full and all(r[7] == "560" for r in full)


def test_explore_to_file_with_sweep(model_files, tmp_path):
    cfg_path, _ = model_files
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        [
            "explore",
            "--config", str(cfg_path),
            "--pout-list", "1,2,4",
            "--pin-list", "1,8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with out.open() as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + TINY.total_layers * 3 * 2


def test_explore_refuses_an_out_that_names_its_config(model_files, capsys):
    cfg_path, _ = model_files
    before = cfg_path.read_bytes()
    rc = run_cli(
        [
            "explore",
            "--config", str(cfg_path),
            "--pout-list", "1",
            "--pin-list", "1",
            "--out", str(cfg_path),
        ]
    )
    assert rc == 1
    assert f"{cfg_path}: --out names the same file as --config" in capsys.readouterr().err
    assert cfg_path.read_bytes() == before


def test_explore_rejects_bad_list(model_files, capsys):
    cfg_path, _ = model_files
    rc = run_cli(
        ["explore", "--config", str(cfg_path), "--pout-list", "a,b", "--pin-list", "1"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_explore_rejects_a_list_of_no_integers(model_files, capsys):
    cfg_path, _ = model_files
    rc = run_cli(
        ["explore", "--config", str(cfg_path), "--pout-list", "1", "--pin-list", ","]
    )
    assert rc == 1
    assert "expected comma-separated integers, got ','" in capsys.readouterr().err


def test_malformed_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--config"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["unknown-command"])
    assert exc.value.code == 2
