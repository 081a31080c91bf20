"""Weight storage and the binary weight file format.

Layout (little-endian throughout):

    8 bytes   magic "FWAVE001"
    6 x u32   num_blocks, layers_per_block, filter_width, channels,
              quant_levels, sample_rate
    per layer (block-major): K[0] then K[1], row-major (OC x IC), float32
    FC weight row-major (channels x quant_levels), float32
    FC bias (quant_levels), float32

Values are stored as 32-bit IEEE-754, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, validate_config

MAGIC = b"FWAVE001"
_HEADER = struct.Struct("<6I")


class WeightFileError(Exception):
    """Base class for weight file problems."""


class BadMagicError(WeightFileError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(WeightFileError):
    """File ended before all declared values were read."""


class WeightShapeError(WeightFileError):
    """Stored shapes disagree with the supplied configuration."""


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
        """Check shapes against ``cfg``, and that every value is finite."""
        specs = validate_config(cfg)
        if len(self.kernels) != len(specs):
            raise WeightShapeError(
                f"expected {len(specs)} kernel pairs, got {len(self.kernels)}"
            )
        for spec, pair in zip(specs, self.kernels):
            want = (spec.out_channels, spec.in_channels)
            for tap, k in enumerate(pair):
                where = f"block {spec.block_index} layer {spec.layer_index} kernel[{tap}]"
                if k.shape != want:
                    raise WeightShapeError(f"{where} shape {k.shape}, expected {want}")
                _check_finite(k, where)
        if self.fc_weight.shape != (cfg.channels, cfg.quant_levels):
            raise WeightShapeError(
                f"fc_weight shape {self.fc_weight.shape}, expected "
                f"{(cfg.channels, cfg.quant_levels)}"
            )
        if self.fc_bias.shape != (cfg.quant_levels,):
            raise WeightShapeError(
                f"fc_bias shape {self.fc_bias.shape}, expected {(cfg.quant_levels,)}"
            )
        _check_finite(self.fc_weight, "fc_weight")
        _check_finite(self.fc_bias, "fc_bias")


def _check_finite(a, where: str) -> None:
    """NaN or infinity would flow silently into every logit; refuse it."""
    if not np.isfinite(a).all():
        raise ValueError(f"{where} holds non-finite values (NaN or infinity)")


def random_weights(cfg: ModelConfig, seed: int, scale: float = 0.25) -> WeightSet:
    """Deterministic uniform weights in ``[-scale, scale]`` (test fixture)."""
    if scale <= 0:
        raise ValueError("scale must be > 0")
    specs = validate_config(cfg)
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.uniform(-scale, scale, size=shape).astype(np.float32)

    kernels = tuple(
        (draw((s.out_channels, s.in_channels)), draw((s.out_channels, s.in_channels)))
        for s in specs
    )
    fc_w = draw((cfg.channels, cfg.quant_levels))
    fc_b = draw((cfg.quant_levels,))
    return WeightSet(kernels=kernels, fc_weight=fc_w, fc_bias=fc_b)


def _header_fields(cfg: ModelConfig) -> tuple[int, ...]:
    """The six u32 header fields, in file order."""
    return (
        cfg.num_blocks,
        cfg.layers_per_block,
        cfg.filter_width,
        cfg.channels,
        cfg.quant_levels,
        cfg.sample_rate,
    )


def save_weights(path, ws: WeightSet, cfg: ModelConfig) -> None:
    ws.validate(cfg)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(*_header_fields(cfg)))
        for k0, k1 in ws.kernels:
            f.write(np.ascontiguousarray(k0, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(k1, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(ws.fc_weight, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(ws.fc_bias, dtype="<f4").tobytes())


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
    specs = validate_config(cfg)
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        header = _HEADER.unpack(_read_exact(f, _HEADER.size, "header"))
        expected = _header_fields(cfg)
        if header != expected:
            raise WeightShapeError(
                f"file header {header} does not match config {expected}"
            )

        def read_matrix(shape, what):
            n = int(np.prod(shape))
            buf = _read_exact(f, 4 * n, what)
            return np.frombuffer(buf, dtype="<f4").reshape(shape).copy()

        kernels = []
        for s in specs:
            shape = (s.out_channels, s.in_channels)
            where = f"block {s.block_index} layer {s.layer_index}"
            k0 = read_matrix(shape, f"{where} kernel[0]")
            k1 = read_matrix(shape, f"{where} kernel[1]")
            kernels.append((k0, k1))
        fc_w = read_matrix((cfg.channels, cfg.quant_levels), "fc weight")
        fc_b = read_matrix((cfg.quant_levels,), "fc bias")
        if f.read(1):
            raise WeightFileError("trailing bytes after declared contents")

    ws = WeightSet(kernels=tuple(kernels), fc_weight=fc_w, fc_bias=fc_b)
    ws.validate(cfg)
    return ws
