"""Weight container and binary file format round-trips."""

import numpy as np
import pytest

from qwavenet import (
    BadMagicError,
    ModelConfig,
    TruncatedFileError,
    WeightFileError,
    WeightShapeError,
    WeightSet,
    generate,
    load_weights,
    random_weights,
    save_weights,
    validate_config,
)

CFG = ModelConfig(num_blocks=2, layers_per_block=3, channels=5, quant_levels=16)


def expected_file_size(cfg):
    specs = validate_config(cfg)
    header = 8 + 6 * 4
    kernels = sum(2 * s.out_channels * s.in_channels for s in specs)
    fc = cfg.channels * cfg.quant_levels + cfg.quant_levels
    return header + 4 * (kernels + fc)


def test_random_weights_shapes_and_range():
    ws = random_weights(CFG, seed=1, scale=0.3)
    ws.validate(CFG)
    specs = validate_config(CFG)
    assert len(ws.kernels) == len(specs)
    for spec, (k0, k1) in zip(specs, ws.kernels):
        assert k0.shape == k1.shape == (spec.out_channels, spec.in_channels)
        assert k0.dtype == k1.dtype == np.float32
    assert ws.fc_weight.shape == (5, 16)
    assert ws.fc_bias.shape == (16,)
    flat = np.concatenate(
        [k.ravel() for pair in ws.kernels for k in pair]
        + [ws.fc_weight.ravel(), ws.fc_bias.ravel()]
    )
    assert np.all(np.abs(flat) <= 0.3)


def test_random_weights_deterministic():
    a = random_weights(CFG, seed=42)
    b = random_weights(CFG, seed=42)
    c = random_weights(CFG, seed=43)
    assert np.array_equal(a.fc_weight, b.fc_weight)
    assert all(
        np.array_equal(x, y)
        for pa, pb in zip(a.kernels, b.kernels)
        for x, y in zip(pa, pb)
    )
    assert not np.array_equal(a.fc_weight, c.fc_weight)


def test_random_weights_rejects_bad_scale():
    for scale in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="scale"):
            random_weights(CFG, seed=0, scale=scale)


def test_random_weights_takes_only_an_int_seed_and_a_real_scale():
    # None would draw fresh OS entropy, so two calls would differ; numpy
    # integers, floats and bools fail the one integer rule
    for seed in (None, np.int64(1), 1.0, True):
        with pytest.raises(TypeError, match="seed"):
            random_weights(CFG, seed=seed)
    with pytest.raises(TypeError, match="scale"):
        random_weights(CFG, seed=0, scale=True)
    assert np.array_equal(random_weights(CFG, seed=0, scale=np.float64(0.5)).fc_bias,
                          random_weights(CFG, seed=0, scale=0.5).fc_bias)


def test_roundtrip_bit_exact(tmp_path):
    ws = random_weights(CFG, seed=7)
    path = tmp_path / "w.bin"
    save_weights(path, ws, CFG)
    back = load_weights(path, CFG)
    for (a0, a1), (b0, b1) in zip(ws.kernels, back.kernels):
        assert np.array_equal(a0, b0) and a0.dtype == b0.dtype
        assert np.array_equal(a1, b1)
    assert np.array_equal(ws.fc_weight, back.fc_weight)
    assert np.array_equal(ws.fc_bias, back.fc_bias)


def test_file_size_matches_layout(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    assert path.stat().st_size == expected_file_size(CFG)


def test_file_starts_with_magic(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    assert path.read_bytes()[:8] == b"FWAVE001"


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_weights(path, CFG)


@pytest.mark.parametrize("keep", [4, 8, 20, 100])
def test_load_rejects_truncated(tmp_path, keep):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    raw = path.read_bytes()
    path.write_bytes(raw[:keep])
    with pytest.raises((BadMagicError, TruncatedFileError)):
        load_weights(path, CFG)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(WeightFileError):
        load_weights(path, CFG)


def test_largest_header_field_saves_and_loads(tmp_path):
    # 2**32 - 1 is the largest value the u32 header holds; 2**32 never builds
    cfg = ModelConfig(num_blocks=1, layers_per_block=1, channels=1, sample_rate=2**32 - 1)
    ws = random_weights(cfg, seed=7)
    path = tmp_path / "w.bin"
    save_weights(path, ws, cfg)
    back = load_weights(path, cfg)
    assert np.array_equal(back.fc_weight, ws.fc_weight)
    assert np.array_equal(back.fc_bias, ws.fc_bias)
    assert np.array_equal(back.kernels[0][1], ws.kernels[0][1])


def test_load_rejects_config_mismatch(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    other = ModelConfig(num_blocks=2, layers_per_block=3, channels=6, quant_levels=16)
    with pytest.raises(WeightShapeError):
        load_weights(path, other)


def test_validate_rejects_wrong_shapes():
    ws = random_weights(CFG, seed=7)
    bad = WeightSet(
        kernels=ws.kernels,
        fc_weight=ws.fc_weight.T.copy(),
        fc_bias=ws.fc_bias,
    )
    with pytest.raises(WeightShapeError):
        bad.validate(CFG)
    bad = WeightSet(
        kernels=ws.kernels[:-1],
        fc_weight=ws.fc_weight,
        fc_bias=ws.fc_bias,
    )
    with pytest.raises(WeightShapeError):
        bad.validate(CFG)


@pytest.mark.parametrize("taps", [1, 3])
def test_validate_rejects_kernel_entry_that_is_not_a_pair(tmp_path, taps):
    ws = random_weights(CFG, seed=7)
    kernels = list(ws.kernels)
    kernels[1] = (kernels[1] * 2)[:taps]
    bad = WeightSet(tuple(kernels), ws.fc_weight, ws.fc_bias)
    with pytest.raises(WeightShapeError, match="expected a pair"):
        bad.validate(CFG)
    path = tmp_path / "w.bin"
    with pytest.raises(WeightShapeError):
        save_weights(path, bad, CFG)
    assert not path.exists()


def test_truncation_names_the_array(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(TruncatedFileError, match="fc_bias"):
        load_weights(path, CFG)


@pytest.mark.parametrize("where", ["kernel", "fc_weight", "fc_bias"])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite(tmp_path, where, bad_value):
    ws = random_weights(CFG, seed=7)
    kernels = [list(pair) for pair in ws.kernels]
    fc_weight, fc_bias = ws.fc_weight.copy(), ws.fc_bias.copy()
    if where == "kernel":
        kernels[2][1] = kernels[2][1].copy()
        kernels[2][1][1, 0] = bad_value
    elif where == "fc_weight":
        fc_weight[3, 1] = bad_value
    else:
        fc_bias[5] = bad_value
    bad = WeightSet(tuple(tuple(pair) for pair in kernels), fc_weight, fc_bias)
    with pytest.raises(ValueError, match="non-finite"):
        bad.validate(CFG)
    path = tmp_path / "w.bin"
    with pytest.raises(ValueError, match="non-finite"):
        save_weights(path, bad, CFG)
    assert not path.exists()


@pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
def test_validate_rejects_non_float32(tmp_path, dtype):
    """The file stores float32; any other dtype would not survive a reload."""
    ws = random_weights(CFG, seed=7)
    kernels = [list(pair) for pair in ws.kernels]
    kernels[2][1] = kernels[2][1].astype(dtype)
    bad = WeightSet(tuple(tuple(pair) for pair in kernels), ws.fc_weight, ws.fc_bias)
    match = rf"layer 3 kernel\[1\] has dtype {np.dtype(dtype)}"
    with pytest.raises(TypeError, match=match):
        bad.validate(CFG)
    path = tmp_path / "w.bin"
    with pytest.raises(TypeError, match=match):
        save_weights(path, bad, CFG)
    assert not path.exists()
    with pytest.raises(TypeError, match=match):
        generate(CFG, bad, n=4)


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, random_weights(CFG, seed=7), CFG)
    data = bytearray(path.read_bytes())
    data[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last FC bias entry
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="non-finite"):
        load_weights(path, CFG)


def test_save_validates_before_writing(tmp_path):
    ws = random_weights(CFG, seed=7)
    other = ModelConfig(num_blocks=1, layers_per_block=3, channels=5, quant_levels=16)
    path = tmp_path / "w.bin"
    with pytest.raises(WeightShapeError):
        save_weights(path, ws, other)
    assert not path.exists()
