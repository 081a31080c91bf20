"""Waveform comparison metrics: MSE and log-spectral distance.

LSD pipeline: STFT both signals, square magnitudes into power spectrograms,
take log(power + epsilon), standardize each log-spectrogram globally to zero
mean and unit variance, and report the RMSE between the two normalized
spectrograms.  Global standardization makes the distance invariant to overall
amplitude scaling of either signal (a pure gain shifts the log-spectrum by a
constant, which standardization removes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SignalTooShortError(ValueError):
    """Signal shorter than one analysis window."""


class LengthMismatchError(ValueError):
    """Compared signals have different lengths."""


_WINDOW_KINDS = ("hann", "rectangular")


@dataclass(frozen=True)
class SpectrogramParams:
    window_size: int = 512
    hop: int = 128
    window: str = "hann"
    epsilon: float = 1e-10

    def __post_init__(self):
        w = self.window_size
        if w < 2 or w & (w - 1):
            raise ValueError(f"window_size must be a power of two >= 2, got {w}")
        if not 1 <= self.hop <= w:
            raise ValueError(f"hop must be in [1, {w}], got {self.hop}")
        if self.window not in _WINDOW_KINDS:
            raise ValueError(f"window must be one of {_WINDOW_KINDS}, got {self.window!r}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def taper(self) -> np.ndarray:
        if self.window == "hann":
            return np.hanning(self.window_size)
        return np.ones(self.window_size)

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.window_size:
            raise SignalTooShortError(
                f"need at least {self.window_size} samples, got {n_samples}"
            )
        return (n_samples - self.window_size) // self.hop + 1


@dataclass(frozen=True)
class MetricReport:
    mse: float
    lsd: float
    n_samples: int

    def __post_init__(self):
        if self.mse < 0 or self.lsd < 0:
            raise ValueError("metrics cannot be negative")


def mse(x1, x2) -> float:
    """Mean squared difference over the whole waveform."""
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("mse expects 1-D signals")
    if a.shape != b.shape:
        raise LengthMismatchError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("mse of empty signals")
    d = a - b
    return float(np.mean(d * d))


def stft(x, params: SpectrogramParams = SpectrogramParams()) -> np.ndarray:
    """Short-time Fourier transform.

    Returns a complex (frames, window_size // 2 + 1) matrix: windowed frames
    at stride ``hop``, real-input FFT, nonnegative-frequency bins only.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("stft expects a 1-D signal")
    frames = params.frame_count(x.size)
    idx = params.hop * np.arange(frames)[:, None] + np.arange(params.window_size)[None, :]
    return np.fft.rfft(x[idx] * params.taper(), axis=1)


def normalized_log_spectrogram(x, params: SpectrogramParams = SpectrogramParams()) -> np.ndarray:
    """log(|stft|^2 + epsilon), standardized to zero mean / unit variance
    across all time-frequency cells.  A flat spectrogram (e.g. silence)
    standardizes to all zeros."""
    spec = stft(x, params)
    ls = np.log(spec.real**2 + spec.imag**2 + params.epsilon)
    sd = ls.std()
    mean = ls.mean()
    # an exactly flat grid can still show a std of a few ulps (the mean is
    # rounded); treat anything that flat as degenerate rather than amplify it
    if sd <= 1e-12 * max(1.0, abs(mean)):
        return np.zeros_like(ls)
    return (ls - mean) / sd


def log_spectral_distance(x1, x2, params: SpectrogramParams = SpectrogramParams()) -> float:
    """RMSE between the normalized log power spectrograms of two signals."""
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatchError(f"length mismatch: {a.size} vs {b.size}")
    d = normalized_log_spectrogram(a, params) - normalized_log_spectrogram(b, params)
    return float(np.sqrt(np.mean(d * d)))


def metric_report(x1, x2, params: SpectrogramParams = SpectrogramParams()) -> MetricReport:
    return MetricReport(
        mse=mse(x1, x2),
        lsd=log_spectral_distance(x1, x2, params),
        n_samples=int(np.asarray(x1).size),
    )
