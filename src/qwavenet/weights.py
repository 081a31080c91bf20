"""Weight storage and the binary weight file format.

Layout (little-endian throughout):

    8 bytes   magic "FWAVE001"
    6 x u32   the config fields in ``model.CONFIG_KEYS`` order: num_blocks,
              layers_per_block, filter_width, channels, quant_levels,
              sample_rate
    the arrays listed by ``_layout``, row-major float32:
      per layer (block-major): K[0] then K[1], (OC x IC)
      FC weight (channels x quant_levels)
      FC bias (quant_levels)

Values are stored as 32-bit IEEE-754, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import CONFIG_KEYS, ModelConfig, config_to_dict, validate_config

MAGIC = b"FWAVE001"
_HEADER = struct.Struct(f"<{len(CONFIG_KEYS)}I")


class WeightFileError(Exception):
    """Base class for weight file problems."""


class BadMagicError(WeightFileError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(WeightFileError):
    """File ended before all declared values were read."""


class WeightShapeError(WeightFileError):
    """Stored shapes disagree with the supplied configuration."""


def _layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every stored array, in file order."""
    layout = [
        (f"block {s.block_index} layer {s.layer_index} kernel[{tap}]",
         (s.out_channels, s.in_channels))
        for s in validate_config(cfg)
        for tap in (0, 1)
    ]
    layout.append(("fc_weight", (cfg.channels, cfg.quant_levels)))
    layout.append(("fc_bias", (cfg.quant_levels,)))
    return layout


@dataclass(frozen=True)
class WeightSet:
    """All learned parameters: one kernel pair per layer, FC weight and bias.

    Kernels are float32 ``(out_channels, in_channels)`` matrices in block-major
    layer order; ``fc_weight`` is ``(channels, quant_levels)`` and ``fc_bias``
    ``(quant_levels,)``.  Treat instances as immutable.
    """

    kernels: tuple[tuple[np.ndarray, np.ndarray], ...]
    fc_weight: np.ndarray
    fc_bias: np.ndarray

    def validate(self, cfg: ModelConfig) -> None:
        """Check shapes against ``cfg``, and that every value is a finite float32."""
        layout = _layout(cfg)
        n_pairs = (len(layout) - 2) // 2
        if len(self.kernels) != n_pairs:
            raise WeightShapeError(f"expected {n_pairs} kernel pairs, got {len(self.kernels)}")
        for i, pair in enumerate(self.kernels):
            if len(pair) != 2:
                raise WeightShapeError(
                    f"kernel entry {i} holds {len(pair)} arrays, expected a pair"
                )
        for (name, shape), a in zip(layout, _file_order(self)):
            if a.shape != shape:
                raise WeightShapeError(f"{name} shape {a.shape}, expected {shape}")
            if a.dtype.kind != "f" or a.dtype.itemsize != 4:
                # the file stores float32, so any other dtype would not round-trip
                raise TypeError(f"{name} has dtype {a.dtype}, expected float32")
            if not np.isfinite(a).all():
                # NaN or infinity would flow silently into every logit
                raise ValueError(f"{name} holds non-finite values (NaN or infinity)")


def _file_order(ws: WeightSet) -> list[np.ndarray]:
    return [k for pair in ws.kernels for k in pair] + [ws.fc_weight, ws.fc_bias]


def _from_file_order(arrays) -> WeightSet:
    *kernels, fc_weight, fc_bias = arrays
    return WeightSet(tuple(zip(kernels[0::2], kernels[1::2])), fc_weight, fc_bias)


def random_weights(cfg: ModelConfig, seed: int, scale: float = 0.25) -> WeightSet:
    """Deterministic uniform weights in ``[-scale, scale]`` (test fixture):
    one int seed gives one weight set."""
    if type(seed) is not int:  # None would draw fresh OS entropy
        raise TypeError(f"seed must be an int, got {seed!r}")
    if isinstance(scale, bool):
        raise TypeError(f"scale must be a real number, got {scale!r}")
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    rng = np.random.default_rng(seed)
    return _from_file_order(
        [rng.uniform(-scale, scale, size=shape).astype(np.float32) for _, shape in _layout(cfg)]
    )


def save_weights(path, ws: WeightSet, cfg: ModelConfig) -> None:
    ws.validate(cfg)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(*config_to_dict(cfg).values()))
        for a in _file_order(ws):
            f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"file ended while reading {what}")
    return buf


def load_weights(path, cfg: ModelConfig) -> WeightSet:
    """Load a weight file, checking the header against ``cfg``.

    The binary header is authoritative: any disagreement with ``cfg`` raises
    :class:`WeightShapeError` rather than being silently reconciled.
    """
    layout = _layout(cfg)
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        header = _HEADER.unpack(_read_exact(f, _HEADER.size, "header"))
        expected = tuple(config_to_dict(cfg).values())
        if header != expected:
            raise WeightShapeError(f"file header {header} does not match config {expected}")
        arrays = [
            np.frombuffer(_read_exact(f, 4 * math.prod(shape), name), dtype="<f4")
            .reshape(shape)
            .copy()
            for name, shape in layout
        ]
        if f.read(1):
            raise WeightFileError("trailing bytes after declared contents")
    ws = _from_file_order(arrays)
    ws.validate(cfg)
    return ws
