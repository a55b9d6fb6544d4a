"""Training and inference for the segmentation network.

Training is a deterministic function of the data bytes and the two seeds
(network init, shuffling/dropout): epochs shuffle with a seeded
Fisher-Yates, batches keep the trailing partial batch, the batch loss is
the mean of per-sample binary cross-entropies, and parameters follow the
bias-corrected Adam update.  Checkpoints round-trip bitwise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dataio.formats import atomic_write_bytes, format_settings, parse_settings
from .errors import (
    BadMagic,
    ConfigMismatch,
    DimMismatch,
    EmptyDataset,
    InvalidConfig,
    NonFiniteValue,
    ShapeMismatch,
    StateShapeMismatch,
    TruncatedData,
)
from .rng import SplitMix64, derive_seed
from .samplekit import Sample, crop_from_reference
from .tensornet import ParamStore, Tensor, UNet, UNetConfig, backward, build_unet, no_grad
from .tensornet.tensor import _accum, _attach, _sigmoid_data

CHECKPOINT_MAGIC = b"UNCK"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 10
    epochs: int = 100
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise InvalidConfig(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def bce_loss(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits), as the stable
    max(z, 0) - z*t + log1p(exp(-|z|)); its gradient (sigmoid(z) - t) / N
    still corrects a pixel whose probability saturated at the wrong end."""
    z = logits.data
    t = np.asarray(target, dtype=z.dtype)
    if t.shape != z.shape:
        raise ShapeMismatch(f"logits {z.shape} vs target {t.shape}")
    per_pixel = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(np.asarray(per_pixel.mean(), dtype=z.dtype))

    def _bw():
        _accum(logits, (_sigmoid_data(z) - t) * (out.grad / z.size))

    return _attach(out, (logits,), _bw)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: ParamStore) -> "AdamState":
        state = cls()
        for name, tensor in params.items():
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(params: ParamStore, state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update from the gradients currently in `params`.

    Gradients are left untouched; the caller zeroes them between steps."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, tensor in params.items():
        g = tensor.grad
        if g is None:
            g = np.zeros_like(tensor.data)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None or m.shape != tensor.data.shape:
            raise StateShapeMismatch(f"optimizer state missing or wrong shape for {name}")
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        tensor.data = tensor.data - cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass(frozen=True)
class Checkpoint:
    config: UNetConfig
    values: dict[str, np.ndarray]

    @cached_property
    def network(self) -> UNet:
        """The network holding these weights, built once on first use.
        Raises ShapeMismatch unless the tensors are exactly those of
        build_unet(config)."""
        net, params = build_unet(self.config)
        params.set_values(self.values)
        return net


def train(
    data: Sequence[tuple[Sample, np.ndarray]],
    unet_cfg: UNetConfig,
    train_cfg: TrainConfig,
    log_fn: Optional[Callable[[int, float], None]] = None,
) -> Checkpoint:
    """Train on (sample, target) pairs; targets are {0,1} masks padded to
    the same reference frame as the samples.  Calls log_fn(epoch, mean_loss)
    after each epoch and returns the final checkpoint.  A non-finite loss or
    gradient raises NonFiniteValue naming the epoch and batch."""
    if len(data) == 0:
        raise EmptyDataset("no training samples")
    ref_shape = data[0][0].values.shape
    for i, (sample, target) in enumerate(data):
        if sample.values.shape != ref_shape:
            raise DimMismatch(
                f"sample {i} has dims {sample.values.shape}, expected {ref_shape}"
            )
        if target.shape != ref_shape[1:]:
            raise DimMismatch(
                f"target {i} has dims {target.shape}, expected {ref_shape[1:]}"
            )

    net, params = build_unet(unet_cfg)
    state = AdamState.for_params(params)
    n = len(data)
    for epoch in range(train_cfg.epochs):
        order = list(range(n))
        SplitMix64(derive_seed(train_cfg.seed, epoch)).shuffle(order)
        epoch_losses = []
        for batch_no, start in enumerate(range(0, n, train_cfg.batch_size)):
            batch = order[start : start + train_cfg.batch_size]
            params.zero_grad()
            for k, idx in enumerate(batch):
                sample, target = data[idx]
                out = net.forward(
                    sample.values,
                    training=True,
                    seed=derive_seed(train_cfg.seed, epoch, batch_no, k),
                )
                loss = bce_loss(out, target[None, :, :])
                backward(loss, grad=1.0 / len(batch))
                epoch_losses.append(loss.item())
            where = f"epoch {epoch}, batch {batch_no}"
            if not np.all(np.isfinite(epoch_losses[-len(batch) :])):
                raise NonFiniteValue(f"{where}: non-finite training loss")
            for name, tensor in params.items():
                if not np.all(np.isfinite(tensor.grad)):
                    raise NonFiniteValue(f"{where}: non-finite gradient of {name}")
            adam_step(params, state, train_cfg)
        if log_fn is not None:
            log_fn(epoch, float(np.mean(epoch_losses)))
    return Checkpoint(unet_cfg, params.values())


def predict(
    cp: Checkpoint,
    sample: Sample,
    threshold: float = 0.5,
    roi_clamp: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Probability map and binary mask, both in the scan's original dims.

    The mask thresholds sigmoid(logits) at `threshold` (>= rule) and, when
    roi_clamp is on, is intersected with the sample's ROI channel support."""
    div = 2**cp.config.depth
    ch, rows, cols = sample.values.shape
    if ch != cp.config.input_channels or rows % div or cols % div:
        raise DimMismatch(
            f"sample dims {sample.values.shape} incompatible with checkpoint "
            f"(needs {cp.config.input_channels} channels, dims divisible by {div})"
        )
    with no_grad():
        logits = cp.network.forward(sample.values, training=False)
    prob = _sigmoid_data(crop_from_reference(logits.data[0], sample.offset, sample.orig_dims))
    mask = (prob >= threshold).astype(np.uint8)
    if roi_clamp:
        roi = crop_from_reference(sample.roi_channel, sample.offset, sample.orig_dims)
        mask &= roi != 0
    return prob.astype(np.float32), mask


def save_checkpoint(cp: Checkpoint, path) -> None:
    """Binary layout: magic, version, the config as format_settings text,
    then tensors in lexicographic name order as (name, rank, dims, float32
    values).  A tensor holding a NaN or inf raises NonFiniteValue naming
    it, and nothing is written."""
    config = format_settings(cp.config).encode("utf-8")
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(config)),
        config,
        struct.pack("<I", len(cp.values)),
    ]
    for name in sorted(cp.values):
        arr = np.asarray(cp.values[name], dtype="<f4")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"{path}: tensor {name} contains non-finite values")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    atomic_write_bytes(path, b"".join(parts))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedData(f"{self.path}: truncated at byte {self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


def _parse_config_block(block: bytes, path) -> UNetConfig:
    """The UNetConfig of a checkpoint: every field exactly once, nothing else."""
    try:
        values = parse_settings(block.decode("utf-8"), UNetConfig(), "config block")
        missing = [f.name for f in fields(UNetConfig) if f.name not in values]
        if missing:
            raise ConfigMismatch(f"{path}: checkpoint config lacks {', '.join(missing)}")
        cfg = UNetConfig(**values)
        cfg.validate()
    except (UnicodeDecodeError, InvalidConfig) as e:
        raise ConfigMismatch(f"{path}: bad checkpoint config: {e}") from e
    return cfg


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint file.  The config block must set every
    UNetConfig field exactly once, the tensors must be exactly those of
    build_unet(config), each once, name for name and shape for shape, with
    finite values, and nothing may follow the last one."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a checkpoint file")
    r = _Reader(data, path)
    r.take(4)
    (version,) = struct.unpack("<I", r.take(4))
    if version != CHECKPOINT_VERSION:
        raise ConfigMismatch(f"{path}: checkpoint version {version} unsupported")
    (config_len,) = struct.unpack("<I", r.take(4))
    cfg = _parse_config_block(r.take(config_len), path)
    (count,) = struct.unpack("<I", r.take(4))
    values: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2))
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigMismatch(f"{path}: tensor name is not UTF-8: {e}") from e
        if name in values:
            raise ConfigMismatch(f"{path}: tensor {name} appears twice")
        (rank,) = struct.unpack("<B", r.take(1))
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        n = int(np.prod(dims)) if rank else 1
        values[name] = (
            np.frombuffer(r.take(4 * n), dtype="<f4").reshape(dims).astype(np.float32)
        )
        if not np.all(np.isfinite(values[name])):
            raise NonFiniteValue(f"{path}: tensor {name} contains non-finite values")
    if r.pos != len(data):
        raise ConfigMismatch(f"{path}: {len(data) - r.pos} trailing bytes after the last tensor")
    cp = Checkpoint(cfg, values)
    cp.network  # checks the tensor table; predict reuses the network
    return cp
