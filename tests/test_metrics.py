"""Waveform comparison metrics against direct-DFT and analytic oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwavenet import (
    LengthMismatchError,
    SignalTooShortError,
    SpectrogramParams,
    log_spectral_distance,
    mse,
    normalized_log_spectrogram,
    stft,
)

SMALL = SpectrogramParams(window_size=64, hop=16)


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


def test_stft_parseval_hann():
    # sum |X_k|^2 over the full spectrum equals N * sum (x * w)^2 per frame
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 64)
    spec = stft(x, SMALL)[0]
    # reconstruct the full power from the one-sided bins: DC and Nyquist
    # appear once, everything else twice
    power = abs(spec[0]) ** 2 + abs(spec[-1]) ** 2 + 2 * np.sum(np.abs(spec[1:-1]) ** 2)
    assert power == pytest.approx(64 * np.sum((x * SMALL.taper()) ** 2), rel=1e-9)


def test_hann_taper():
    taper = SMALL.taper()
    assert taper.shape == (64,)
    assert taper[0] == pytest.approx(0.0)
    assert np.max(taper) <= 1.0
    # symmetric raised cosine over window_size - 1
    want = 0.5 * (1 - np.cos(2 * np.pi * np.arange(64) / 63))
    assert np.allclose(taper, want, rtol=1e-12, atol=1e-12)


def test_spectrogram_params_validation():
    with pytest.raises(ValueError):
        SpectrogramParams(window_size=100)  # not a power of two
    with pytest.raises(ValueError):
        SpectrogramParams(hop=0)
    with pytest.raises(ValueError):
        SpectrogramParams(hop=513)
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
    removes a global shift.  A bin-centered sine under a 64-sample Hann
    window at hop 64 puts its power in its bin and the two beside it; the
    symmetric taper leaks a little into every other bin, but the weakest
    cell (about 1e-7) still sits three orders of magnitude above the 1e-10
    floor, so every cell shifts by nearly log 4 and the cancellation is
    nearly perfect.  (Under the 512-sample default the sine's LSD reads
    about 0.05.)  Broadband noise clears the floor everywhere and cancels
    as well.
    """
    t = np.arange(4096)
    x = np.sin(2 * np.pi * 5 * t / 64)
    assert log_spectral_distance(x, 2.0 * x, SpectrogramParams(window_size=64, hop=64)) < 0.01

    rng = np.random.default_rng(14)
    y = rng.uniform(-1, 1, 4096)
    assert log_spectral_distance(y, 2.0 * y) < 0.01


def test_lsd_validation():
    with pytest.raises(LengthMismatchError):
        log_spectral_distance(np.zeros(512), np.zeros(513), SMALL)
    with pytest.raises(SignalTooShortError):
        log_spectral_distance(np.zeros(32), np.zeros(32), SMALL)
