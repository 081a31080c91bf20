"""Structural invariants: layer table, queue sizes, receptive field, config I/O."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from qwavenet import (
    ConfigError,
    LayerState,
    ModelConfig,
    RealMode,
    config_digest,
    estimate_queue_memory,
    load_config,
    random_weights,
    receptive_field,
    save_config,
    teacher_forced_layer_outputs,
    validate_config,
)
from conftest import small_configs
from qwavenet.model import CONFIG_KEYS


# ---------------------------------------------------------------------------
# layer table


def test_default_config_shape():
    cfg = ModelConfig()
    assert cfg.num_blocks == 2
    assert cfg.layers_per_block == 14
    assert cfg.channels == 128
    assert cfg.quant_levels == 256
    assert cfg.sample_rate == 16000
    assert cfg.total_layers == 28


def test_layer_table_default():
    specs = validate_config(ModelConfig())
    assert len(specs) == 28
    # block-major ordering with 1-based indices
    assert [(s.block_index, s.layer_index) for s in specs[:3]] == [
        (1, 1),
        (1, 2),
        (1, 3),
    ]
    assert (specs[14].block_index, specs[14].layer_index) == (2, 1)
    # dilations double within each block and reset between blocks
    assert [s.dilation for s in specs[:14]] == [2**i for i in range(14)]
    assert [s.dilation for s in specs[14:]] == [2**i for i in range(14)]
    # only the very first layer reads the scalar input stream
    assert specs[0].in_channels == 1
    assert all(s.in_channels == 128 for s in specs[1:])
    assert all(s.out_channels == 128 for s in specs)
    # a layer's input queue holds one row per step of delay
    assert all(s.queue_elems == s.dilation * s.in_channels for s in specs)


@given(small_configs())
def test_layer_table_invariants(cfg):
    specs = validate_config(cfg)
    assert len(specs) == cfg.total_layers
    for s in specs:
        assert s.dilation == 2 ** (s.layer_index - 1)
        assert LayerState.fresh(s).queue.length == s.dilation
        assert s.out_channels == cfg.channels
        if s.block_index == 1 and s.layer_index == 1:
            assert s.in_channels == 1
        else:
            assert s.in_channels == cfg.channels
        assert s.queue_elems == s.dilation * s.in_channels


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_blocks", 0),
        ("layers_per_block", 0),
        ("filter_width", 3),
        ("channels", 0),
        ("quant_levels", 1),
        ("sample_rate", 0),
        # the weight-file header stores every field as a u32
        *((k, 2**32) for k in CONFIG_KEYS),
    ],
)
def test_validate_config_rejects(field, value):
    # a config checks itself when built, so a bad one never reaches validate_config
    with pytest.raises(ConfigError):
        ModelConfig(**{field: value})
    with pytest.raises(ConfigError):
        replace(ModelConfig(), **{field: value})


@pytest.mark.parametrize("field", CONFIG_KEYS)
@pytest.mark.parametrize(
    "bad",
    [2.0, 16000.5, True, np.int64(2), "2", None],
    ids=["float", "fraction", "bool", "numpy", "str", "none"],
)
def test_config_fields_take_ints_only(field, bad):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: bad})
    with pytest.raises(ConfigError, match=field):
        replace(ModelConfig(), **{field: bad})


# ---------------------------------------------------------------------------
# queue memory


def test_queue_memory_default():
    mem = estimate_queue_memory(ModelConfig())
    assert len(mem.per_layer) == 28
    # first layer reads one channel, so its length-1 queue holds one element
    assert mem.per_layer[0] == 1
    # expected counts: dilation x in_channels for every layer
    expected = []
    for block in (1, 2):
        for layer in range(1, 15):
            in_ch = 1 if (block == 1 and layer == 1) else 128
            expected.append(2 ** (layer - 1) * in_ch)
    assert list(mem.per_layer) == expected
    assert mem.total == sum(expected)


@given(small_configs())
def test_queue_memory_matches_specs(cfg):
    mem = estimate_queue_memory(cfg)
    specs = validate_config(cfg)
    assert mem.per_layer == tuple(s.queue_elems for s in specs)
    assert mem.total == sum(mem.per_layer)


# ---------------------------------------------------------------------------
# receptive field


def test_receptive_field_default():
    # 1 + 2 * (2**14 - 1) for two blocks of doubling dilations
    assert receptive_field(ModelConfig()) == 32767


@given(small_configs())
def test_receptive_field_formula(cfg):
    rf = receptive_field(cfg)
    assert rf == 1 + cfg.num_blocks * (2**cfg.layers_per_block - 1)


def test_receptive_field_impulse_oracle():
    """The reported receptive field matches observed influence propagation.

    The convolution stack has no bias terms, so an all-zero input stream
    produces all-zero activations.  Teacher-forcing an impulse at step ``p``
    must therefore perturb the final layer exactly at steps
    ``p .. p + receptive_field - 1`` and nowhere else.
    """
    cfg = ModelConfig(num_blocks=1, layers_per_block=4, channels=6)
    rf = receptive_field(cfg)
    assert rf == 16

    ws = random_weights(cfg, seed=31, scale=0.4)
    n, p = 40, 5
    inputs = np.zeros(n)
    inputs[p] = 1.0

    last = cfg.total_layers - 1
    base = teacher_forced_layer_outputs(cfg, ws, np.zeros(n), mode=RealMode())
    hit = teacher_forced_layer_outputs(cfg, ws, inputs, mode=RealMode())

    assert np.all(base.layer_outputs[last] == 0.0)
    delta = np.abs(hit.layer_outputs[last] - base.layer_outputs[last]).max(axis=1)
    touched = np.flatnonzero(delta)
    assert touched.min() == p
    assert touched.max() == p + rf - 1
    assert len(touched) == rf


# ---------------------------------------------------------------------------
# config file round-trip


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_configs())
@example(ModelConfig(num_blocks=1, layers_per_block=6, channels=12, quant_levels=64))
def test_config_roundtrip(tmp_path, cfg):
    # every config that can be built saves and loads back equal
    path = tmp_path / "model.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_file_is_plain_json(tmp_path):
    path = tmp_path / "model.json"
    save_config(ModelConfig(), path)
    data = json.loads(path.read_text())
    assert data["channels"] == 128
    assert data["filter_width"] == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra_key=1),
        lambda d: d.pop("channels"),
        lambda d: d.update(channels="128"),
        lambda d: d.update(channels=True),
        lambda d: d.update(quant_levels=1),
        lambda d: d.update(channels=128.0),
        lambda d: d.update(sample_rate=16000.5),
    ],
)
def test_load_config_rejects_malformed(tmp_path, mutate):
    cfg = ModelConfig()
    path = tmp_path / "model.json"
    save_config(cfg, path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_digest_stable_and_distinct():
    a = config_digest(ModelConfig())
    b = config_digest(ModelConfig())
    c = config_digest(ModelConfig(channels=64))
    assert a == b
    assert len(a) == 64
    assert a != c
