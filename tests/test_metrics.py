"""Waveform comparison metrics against direct-DFT and analytic oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwavenet import (
    LengthMismatchError,
    MetricReport,
    SignalTooShortError,
    SpectrogramParams,
    log_spectral_distance,
    metric_report,
    mse,
    normalized_log_spectrogram,
    stft,
)

SMALL = SpectrogramParams(window_size=64, hop=16)
RECT = SpectrogramParams(window_size=64, hop=64, window="rectangular")


def naive_rdft(frame):
    """Direct O(N^2) real DFT, the oracle for the FFT path."""
    n = len(frame)
    out = np.empty(n // 2 + 1, dtype=complex)
    for k in range(n // 2 + 1):
        out[k] = sum(
            frame[t] * np.exp(-2j * np.pi * k * t / n) for t in range(n)
        )
    return out


# ---------------------------------------------------------------------------
# mean squared error


def test_mse_examples():
    assert mse(np.zeros(4), np.ones(4)) == 1.0
    assert mse(np.ones(4), np.ones(4)) == 0.0
    assert mse(np.array([1.0, -1.0]), np.array([-1.0, 1.0])) == 4.0


def test_mse_validation():
    with pytest.raises(LengthMismatchError):
        mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mse(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((2, 2)))


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
)
def test_mse_properties(a_list, b_list):
    n = min(len(a_list), len(b_list))
    a = np.array(a_list[:n])
    b = np.array(b_list[:n])
    m = mse(a, b)
    assert m >= 0.0
    assert m == mse(b, a)
    assert mse(a, a) == 0.0
    assert m == pytest.approx(float(np.mean((a - b) ** 2)), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# short-time Fourier transform


def test_stft_shape_and_frames():
    x = np.zeros(256)
    spec = stft(x, SMALL)
    # (256 - 64) // 16 + 1 frames, 64 // 2 + 1 bins
    assert spec.shape == (13, 33)


@given(st.integers(64, 400), st.integers(1, 64))
def test_frame_count_formula(n, hop):
    p = SpectrogramParams(window_size=64, hop=hop)
    assert p.frame_count(n) == (n - 64) // hop + 1
    assert stft(np.zeros(n), p).shape == (p.frame_count(n), 33)


def test_stft_too_short():
    with pytest.raises(SignalTooShortError):
        stft(np.zeros(63), SMALL)


def test_stft_matches_naive_dft():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 96)
    taper = SMALL.taper()
    spec = stft(x, SMALL)
    for f in range(spec.shape[0]):
        frame = x[f * 16 : f * 16 + 64] * taper
        want = naive_rdft(frame)
        assert np.allclose(spec[f], want, rtol=1e-9, atol=1e-9)


def test_stft_rectangular_matches_naive_dft():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 128)
    spec = stft(x, RECT)
    assert np.allclose(spec[0], naive_rdft(x[:64]), rtol=1e-9, atol=1e-9)
    assert np.allclose(spec[1], naive_rdft(x[64:]), rtol=1e-9, atol=1e-9)


def test_stft_bin_center_sine():
    # a sine exactly on bin k concentrates all energy there
    n, k = 64, 5
    t = np.arange(n)
    x = np.sin(2 * np.pi * k * t / n)
    mag = np.abs(stft(x, RECT)[0])
    assert np.argmax(mag) == k
    others = np.delete(mag, k)
    assert mag[k] == pytest.approx(n / 2, rel=1e-9)
    assert np.all(others < 1e-9 * n)


def test_stft_parseval_rectangular():
    # sum |X_k|^2 over the full spectrum equals N * sum x^2 per frame
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 64)
    spec = stft(x, RECT)[0]
    # reconstruct the full power from the one-sided bins: DC and Nyquist
    # appear once, everything else twice
    power = abs(spec[0]) ** 2 + abs(spec[-1]) ** 2 + 2 * np.sum(np.abs(spec[1:-1]) ** 2)
    assert power == pytest.approx(64 * np.sum(x**2), rel=1e-9)


def test_hann_taper():
    taper = SMALL.taper()
    assert taper.shape == (64,)
    assert taper[0] == pytest.approx(0.0)
    assert np.max(taper) <= 1.0
    # symmetric raised cosine over window_size - 1
    want = 0.5 * (1 - np.cos(2 * np.pi * np.arange(64) / 63))
    assert np.allclose(taper, want, rtol=1e-12, atol=1e-12)
    assert np.array_equal(RECT.taper(), np.ones(64))


def test_spectrogram_params_validation():
    with pytest.raises(ValueError):
        SpectrogramParams(window_size=100)  # not a power of two
    with pytest.raises(ValueError):
        SpectrogramParams(hop=0)
    with pytest.raises(ValueError):
        SpectrogramParams(hop=513)
    with pytest.raises(ValueError):
        SpectrogramParams(window="hamming")
    with pytest.raises(ValueError):
        SpectrogramParams(epsilon=0.0)
    with pytest.raises(ValueError):
        SpectrogramParams(epsilon=float("inf"))
    with pytest.raises(TypeError, match="epsilon"):
        SpectrogramParams(epsilon=True)  # used to build with epsilon 1.0


@pytest.mark.parametrize(
    "kw", [dict(hop=16.5), dict(window_size=64.0), dict(hop=True), dict(window_size=np.int64(64))]
)
def test_spectrogram_params_take_ints_only(kw):
    with pytest.raises(TypeError, match="must be ints"):
        SpectrogramParams(**kw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_refuse_non_finite_signals(bad):
    clean = np.sin(np.arange(256) * 0.1)
    dirty = clean.copy()
    dirty[100] = bad
    for a, b in ((clean, dirty), (dirty, clean)):
        with pytest.raises(ValueError, match="non-finite"):
            mse(a, b)
        with pytest.raises(ValueError, match="non-finite"):
            log_spectral_distance(a, b, SMALL)
        with pytest.raises(ValueError, match="non-finite"):
            metric_report(a, b, SMALL)


# ---------------------------------------------------------------------------
# normalized log spectrogram and LSD


def test_normalized_spectrogram_is_standardized():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 512)
    norm = normalized_log_spectrogram(x, SMALL)
    assert norm.mean() == pytest.approx(0.0, abs=1e-9)
    assert norm.std() == pytest.approx(1.0, rel=1e-9)


def test_normalized_spectrogram_constant_signal():
    # zero signal: log spectrogram is constant, std is zero, output all zero
    norm = normalized_log_spectrogram(np.zeros(256), SMALL)
    assert np.array_equal(norm, np.zeros_like(norm))


def test_lsd_identical_signals_zero():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, 1024)
    assert log_spectral_distance(x, x.copy(), SMALL) == 0.0


def test_lsd_symmetry_and_positivity():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, 512)
    b = rng.uniform(-1, 1, 512)
    d_ab = log_spectral_distance(a, b, SMALL)
    d_ba = log_spectral_distance(b, a, SMALL)
    assert d_ab == pytest.approx(d_ba, rel=1e-12)
    assert d_ab > 0.0


def test_lsd_scale_invariance():
    """Standardizing log power cancels a global amplitude change.

    Doubling the amplitude shifts log(|X|^2) by log 4 wherever the power
    clears the epsilon floor, and the per-spectrogram standardization
    removes a global shift.  A bin-centered sine under a rectangular
    window is leakage-free, so every cell is either far above the floor or
    exactly on it and the cancellation is essentially perfect; broadband
    noise clears the floor everywhere and cancels as well.
    """
    t = np.arange(4096)
    x = np.sin(2 * np.pi * 5 * t / 64)
    assert log_spectral_distance(x, 2.0 * x, RECT) < 0.01

    rng = np.random.default_rng(14)
    y = rng.uniform(-1, 1, 4096)
    assert log_spectral_distance(y, 2.0 * y) < 0.01


def test_lsd_validation():
    with pytest.raises(LengthMismatchError):
        log_spectral_distance(np.zeros(512), np.zeros(513), SMALL)
    with pytest.raises(SignalTooShortError):
        log_spectral_distance(np.zeros(32), np.zeros(32), SMALL)


def test_metric_report_fields():
    rng = np.random.default_rng(12)
    a = rng.uniform(-1, 1, 700)
    b = a + rng.normal(0, 0.01, 700)
    rep = metric_report(a, b, SMALL)
    assert rep.n_samples == 700
    assert rep.mse == pytest.approx(mse(a, b))
    assert rep.lsd == pytest.approx(log_spectral_distance(a, b, SMALL))
    assert rep.mse >= 0 and rep.lsd >= 0


@pytest.mark.parametrize("mse_value, lsd_value", [(-1e-12, 0.0), (0.0, -0.5)])
def test_metric_report_refuses_negative_metrics(mse_value, lsd_value):
    with pytest.raises(ValueError, match="metrics cannot be negative"):
        MetricReport(mse=mse_value, lsd=lsd_value, n_samples=10)
