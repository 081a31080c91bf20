"""Network description and geometry accounting.

The generator is a stack of blocks, each holding ``layers_per_block`` dilated
causal convolution layers of filter width 2.  Within a block, layer ``l``
(1-based) has dilation ``d = 2**(l-1)``; the generator keeps a ring of the
layer's last ``d`` delayed-tap (k0) products.  Layer 1 of block 1 reads the
scalar input stream (one channel); every other layer reads ``channels``
channels.  A single fully connected layer maps the last convolution output
to ``quant_levels`` logits.

This module owns the structural invariants: per-layer shapes, the input-queue
reference's sizes, receptive field, and the JSON config format.  A
:class:`ModelConfig` checks itself when built, directly, by
``dataclasses.replace`` or from JSON: every field is a Python ``int``
(``FxFormat``'s rule) that fits the weight file's u32 header, the ranges hold
and the filter width is 2, so a saved config always loads and every config's
weights can be saved.  Weight storage lives in :mod:`qwavenet.weights`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

SUPPORTED_FILTER_WIDTH = 2

CONFIG_KEYS = (
    "num_blocks",
    "layers_per_block",
    "filter_width",
    "channels",
    "quant_levels",
    "sample_rate",
)

_MINIMUMS = {
    "num_blocks": 1, "layers_per_block": 1, "channels": 1, "quant_levels": 2, "sample_rate": 1,
}
_FIELD_MAX = 2**32 - 1  # the weight-file header stores every field as a u32


class ConfigError(ValueError):
    """A model configuration violates a structural invariant."""


@dataclass(frozen=True)
class ModelConfig:
    """Full network description.

    The defaults describe the reference architecture: 2 blocks of 14 layers,
    128 channels, 256 linear quantization levels, 16 kHz audio.
    """

    num_blocks: int = 2
    layers_per_block: int = 14
    filter_width: int = 2
    channels: int = 128
    quant_levels: int = 256
    sample_rate: int = 16000

    def __post_init__(self):
        for k in CONFIG_KEYS:
            v = getattr(self, k)
            if type(v) is not int:
                raise ConfigError(f"config key {k} must be an int, got {v!r}")
            if v > _FIELD_MAX:
                raise ConfigError(f"config key {k} must be <= {_FIELD_MAX}, got {v}")
        for k, lo in _MINIMUMS.items():
            if getattr(self, k) < lo:
                raise ConfigError(f"{k} must be >= {lo}, got {getattr(self, k)}")
        if self.filter_width != SUPPORTED_FILTER_WIDTH:
            raise ConfigError(
                f"filter_width must be {SUPPORTED_FILTER_WIDTH}, got {self.filter_width}"
            )

    @property
    def total_layers(self) -> int:
        return self.num_blocks * self.layers_per_block


@dataclass(frozen=True)
class LayerSpec:
    """Resolved geometry of one convolution layer.

    ``block_index`` and ``layer_index`` are 1-based.  The generator's ring
    for the layer holds ``dilation * out_channels`` k0 products;
    ``queue_elems`` counts the input-queue reference's ``dilation *
    in_channels``.
    """

    block_index: int
    layer_index: int
    in_channels: int
    out_channels: int
    dilation: int

    @property
    def queue_elems(self) -> int:
        return self.dilation * self.in_channels


def validate_config(cfg: ModelConfig) -> list[LayerSpec]:
    """The ordered per-layer specs of a config, block-major (all of block 1,
    then block 2, ...).  Checks nothing: the config checked itself when built.
    """
    specs = []
    for b in range(1, cfg.num_blocks + 1):
        for l in range(1, cfg.layers_per_block + 1):
            in_ch = 1 if (b == 1 and l == 1) else cfg.channels
            specs.append(
                LayerSpec(
                    block_index=b,
                    layer_index=l,
                    in_channels=in_ch,
                    out_channels=cfg.channels,
                    dilation=2 ** (l - 1),
                )
            )
    return specs


@dataclass(frozen=True)
class QueueMemory:
    """Per-layer and total queue element counts (elements, not bytes)."""

    per_layer: tuple[int, ...]
    total: int


def estimate_queue_memory(cfg: ModelConfig) -> QueueMemory:
    """Element counts of the input-queue reference's queues (block-major
    order): ``dilation * in_channels`` per layer, as ``dilated_conv_step``
    keeps them.  ``generate``'s rings hold ``dilation * out_channels`` k0
    products instead, which differs only for a one-channel input layer: the
    default model's sessions hold 4194048 elements, not 4193921.
    """
    specs = validate_config(cfg)
    per_layer = tuple(s.queue_elems for s in specs)
    return QueueMemory(per_layer=per_layer, total=sum(per_layer))


def receptive_field(cfg: ModelConfig) -> int:
    """Number of past input samples that influence one output sample.

    Exact value for the dilated stack: ``1 + sum(dilation * (filter_width - 1))``
    over all layers.
    """
    specs = validate_config(cfg)
    return 1 + sum(s.dilation * (cfg.filter_width - 1) for s in specs)


def config_to_dict(cfg: ModelConfig) -> dict:
    return {k: getattr(cfg, k) for k in CONFIG_KEYS}


def config_from_dict(data: dict) -> ModelConfig:
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = set(CONFIG_KEYS) - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return ModelConfig(**data)


def save_config(cfg: ModelConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=2)
        f.write("\n")


def load_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be an object")
    return config_from_dict(data)


def config_digest(cfg: ModelConfig) -> str:
    """Stable sha256 of the canonical JSON form, for provenance reports."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()
