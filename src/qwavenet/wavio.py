"""Minimal WAV I/O: 16-bit PCM, mono, little-endian.

Sample mapping is fixed by contract: real s -> clamp(round(s * 32767),
-32768, 32767), rounding ties away from zero, so +/-1.0 map to +/-32767.
Files carry the canonical 44-byte RIFF/WAVE header (stdlib ``wave`` writes
exactly that for plain PCM).
"""

from __future__ import annotations

import wave

import numpy as np

from .numerics import _round_half_away_f64

BIT_DEPTH = 16
CHANNELS = 1
_MAX_SAMPLE_RATE = 2**31 - 1  # the header's byte rate, rate * 2, is a u32


class WavFormatError(ValueError):
    """File is not 16-bit mono PCM."""


def encode_pcm16(samples) -> np.ndarray:
    """Real samples to int16 PCM codes."""
    with np.errstate(over="ignore"):  # past float64 is +-inf, which clamps
        rounded = _round_half_away_f64(np.asarray(samples, dtype=np.float64) * 32767.0)
    return np.clip(rounded, -32768, 32767).astype("<i2")


def _check_sample_rate(sample_rate) -> None:
    """Refuse a rate that is not an int the header stores exactly."""
    if type(sample_rate) is not int:
        raise TypeError(f"sample_rate must be an int, got {sample_rate!r}")
    if not 1 <= sample_rate <= _MAX_SAMPLE_RATE:
        raise ValueError(f"sample_rate must be in [1, {_MAX_SAMPLE_RATE}], got {sample_rate}")


def write_wav(path, samples, sample_rate: int) -> None:
    """Write a mono 16-bit PCM file of reals in [-1, 1] at a rate the header
    stores exactly.  Bad input is refused before the file is opened."""
    _check_sample_rate(sample_rate)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    if not np.isfinite(samples).all():
        raise ValueError("samples hold non-finite values (NaN or infinity)")
    pcm = encode_pcm16(samples)
    with open(path, "wb") as f, wave.open(f, "wb") as fh:
        fh.setnchannels(CHANNELS)
        fh.setsampwidth(BIT_DEPTH // 8)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path):
    """Read a mono 16-bit PCM file back to (float64 samples, sample_rate).

    Inverse of the write mapping: code / 32767, so a written file reads back
    to within half a PCM step of the original samples.
    """
    try:
        fh = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        raise WavFormatError(f"{path}: not a WAV file ({exc})") from exc
    with fh:
        layout = (fh.getnchannels(), 8 * fh.getsampwidth(), fh.getcomptype())
        if layout != (CHANNELS, BIT_DEPTH, "NONE"):
            raise WavFormatError(f"{path}: expected uncompressed 16-bit mono PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    codes = np.frombuffer(raw, dtype="<i2")
    return codes.astype(np.float64) / 32767.0, rate
