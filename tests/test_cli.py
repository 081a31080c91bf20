"""End-to-end command-line runs against temp files."""

import csv
import io
import json

import numpy as np
import pytest

from qwavenet import ModelConfig, random_weights, save_config, save_weights, write_wav
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
    assert "total_bits <= 32" in capsys.readouterr().err
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


def test_verify_passes(model_files, capsys):
    cfg_path, _ = model_files
    rc = run_cli(["verify", "--config", str(cfg_path), "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == 4
    assert "ok   queue generator vs naive reference, real" in out
    assert "ok   queue generator vs naive reference, fixed<27,8>" in out
    assert "FAIL" not in out


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


def test_explore_rejects_bad_list(model_files, capsys):
    cfg_path, _ = model_files
    rc = run_cli(
        ["explore", "--config", str(cfg_path), "--pout-list", "a,b", "--pin-list", "1"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--config"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["unknown-command"])
    assert exc.value.code == 2
