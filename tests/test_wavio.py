"""16-bit mono WAV encoding and container round-trips."""

import struct
import wave
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwavenet import WavFormatError, read_wav, write_wav
from qwavenet.wavio import encode_pcm16


def test_encode_endpoints():
    codes = encode_pcm16(np.array([1.0, -1.0, 0.0]))
    assert codes.dtype == np.dtype("<i2")
    assert list(codes) == [32767, -32767, 0]


def test_encode_clamps_out_of_range():
    codes = encode_pcm16(np.array([2.0, -2.0]))
    assert list(codes) == [32767, -32768]


def test_encode_rounds_half_away_from_zero():
    # 0.5/32767 steps: exact midpoints go away from zero in both directions
    x = np.array([0.5, -0.5, 1.5, -1.5]) / 32767.0
    assert list(encode_pcm16(x)) == [1, -1, 2, -2]


@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=50))
def test_encode_matches_scalar_rule(xs):
    def ref(v):
        # exact rational rounding of the float64 scaled value
        s = Fraction(v * 32767.0)
        r = int(abs(s) + Fraction(1, 2))
        r = r if s >= 0 else -r
        return max(-32768, min(32767, r))

    got = encode_pcm16(np.array(xs))
    assert list(got) == [ref(v) for v in xs]


def test_write_wav_file_layout(tmp_path):
    path = tmp_path / "a.wav"
    samples = np.linspace(-1, 1, 100)
    write_wav(path, samples, 16000)
    raw = path.read_bytes()
    assert len(raw) == 44 + 2 * 100
    assert raw[0:4] == b"RIFF"
    assert raw[8:12] == b"WAVE"
    assert raw[12:16] == b"fmt "
    # header fields: PCM, mono, rate, byte rate, block align, 16 bits
    fmt_tag, channels, rate, byte_rate, block_align, bits = struct.unpack(
        "<HHIIHH", raw[20:36]
    )
    assert (fmt_tag, channels, rate) == (1, 1, 16000)
    assert byte_rate == 16000 * 2
    assert block_align == 2
    assert bits == 16
    assert raw[36:40] == b"data"
    assert struct.unpack("<I", raw[40:44])[0] == 200


def test_write_wav_deterministic(tmp_path):
    samples = np.sin(np.linspace(0, 20, 500))
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(p1, samples, 8000)
    write_wav(p2, samples, 8000)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_is_faithful(tmp_path):
    rng = np.random.default_rng(15)
    samples = rng.uniform(-1, 1, 400)
    path = tmp_path / "a.wav"
    write_wav(path, samples, 16000)
    back, rate = read_wav(path)
    assert rate == 16000
    assert back.shape == (400,)
    # one PCM step is 1/32767, so the round trip is within half a step
    assert np.max(np.abs(back - samples)) <= 0.5 / 32767.0
    # and re-encoding the decoded samples reproduces the exact codes
    assert np.array_equal(encode_pcm16(back), encode_pcm16(samples))


def test_write_wav_clamps_huge_finite_samples(tmp_path):
    # 1e306 and the largest double scale past the float64 range; they clamp
    # as any out-of-range sample does
    big = np.finfo(np.float64).max
    path = tmp_path / "a.wav"
    write_wav(path, np.array([1e306, -1e306, big, -big]), 16000)
    back, _ = read_wav(path)
    assert (back * 32767.0).tolist() == [32767, -32768, 32767, -32768]


def test_write_wav_validation(tmp_path):
    path = tmp_path / "a.wav"
    with pytest.raises(ValueError):
        write_wav(path, np.array([]), 16000)
    with pytest.raises(ValueError):
        write_wav(path, np.zeros(4), 0)
    with pytest.raises(ValueError):
        write_wav(path, np.zeros((2, 2)), 16000)


@pytest.mark.parametrize("rate", [16000.5, 16000.0, True, np.int64(16000)])
def test_write_wav_rate_takes_ints_only(tmp_path, rate):
    # the header stores an integer rate: 16000.5 would be written as 16000
    # and True as 1 Hz
    path = tmp_path / "a.wav"
    with pytest.raises(TypeError, match="sample_rate must be an int"):
        write_wav(path, np.zeros(4), rate)
    assert not path.exists()


@pytest.mark.parametrize("rate", [2**31, 2**32 - 1])
def test_write_wav_refuses_rates_past_the_header(tmp_path, rate):
    # the header's byte rate, rate * 2, is a u32; the refusal comes before
    # the file is opened, so no half-written file is left behind
    path = tmp_path / "a.wav"
    with pytest.raises(ValueError, match="sample_rate must be in"):
        write_wav(path, np.zeros(4), rate)
    assert not path.exists()


def test_write_wav_takes_the_largest_rate(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(path, np.array([0.5, -0.25]), 2**31 - 1)
    back, rate = read_wav(path)
    assert rate == 2**31 - 1
    assert (back * 32767.0).tolist() == [16384, -8192]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_wav_refuses_non_finite(tmp_path, bad):
    path = tmp_path / "a.wav"
    with pytest.raises(ValueError, match="non-finite"):
        write_wav(path, np.array([0.5, bad, 0.0]), 16000)
    assert not path.exists()


def test_write_wav_into_a_missing_directory_raises_only_file_not_found(tmp_path):
    # the file is opened before the wave writer is built, so no half-built
    # writer reports an ignored exception when it is collected (the pytest
    # configuration turns that report into an error)
    path = tmp_path / "missing" / "a.wav"
    with pytest.raises(FileNotFoundError):
        write_wav(path, np.zeros(4), 16000)
    assert not path.parent.exists()


def test_read_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(8000)
        f.writeframes(b"\0\0" * 8)
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_rejects_8_bit(tmp_path):
    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(1)
        f.setframerate(8000)
        f.writeframes(b"\0" * 8)
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_rejects_non_wav(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"definitely not audio")
    with pytest.raises(WavFormatError):
        read_wav(path)

