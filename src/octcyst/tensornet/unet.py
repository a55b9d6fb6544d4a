"""The extended U-Net: encoder, decoder, and the connection module
(attention-gated skips plus an atrous pyramid in the bottleneck)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig, OctCystError
from ..rng import derive_seed, uniform_array
from .layers import (
    aspp,
    attention_gate,
    conv2d,
    max_pool2,
    transposed_conv2d,
)
from .tensor import Tensor


@dataclass(frozen=True)
class UNetConfig:
    input_channels: int = 2
    base_channels: int = 16
    depth: int = 3
    bottleneck_channels: int = 128
    aspp_rates: tuple[int, ...] = (1, 2, 4, 8, 16)
    dropout_per_level: tuple[float, ...] = (0.1, 0.1, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self):
        if self.input_channels < 1 or self.base_channels < 1 or self.depth < 1:
            raise InvalidConfig("channel counts and depth must be positive")
        if self.base_channels * 2**self.depth != self.bottleneck_channels:
            raise InvalidConfig(
                f"bottleneck_channels must equal base_channels * 2^depth "
                f"({self.base_channels * 2 ** self.depth}), "
                f"got {self.bottleneck_channels}"
            )
        if not self.aspp_rates or any(r < 1 for r in self.aspp_rates):
            raise InvalidConfig("aspp_rates must be nonempty positive integers")
        if len(self.dropout_per_level) != self.depth + 1:
            raise InvalidConfig(
                f"need {self.depth + 1} dropout rates (encoder levels + bottleneck), "
                f"got {len(self.dropout_per_level)}"
            )
        if any(not 0.0 <= p < 1.0 for p in self.dropout_per_level):
            raise InvalidConfig("dropout rates must be in [0, 1)")


class ParamStore:
    """The tensors of param_layout(cfg), by name.  Each tensor's data is a
    view into `flat`, one array that holds every value in name order, so
    an update of `flat` in place updates the network.  Given `grad`, laid
    out as `flat`, each tensor requires gradients and its .grad is a view
    into `grad`, so that a backward adds every gradient into one array."""

    def __init__(self, cfg: UNetConfig, flat: np.ndarray, grad: np.ndarray | None = None):
        self.flat = flat
        self.grad = grad
        self._params: dict[str, Tensor] = {}
        end = 0
        for name, shape, _ in sorted(param_layout(cfg)):
            start, end = end, end + math.prod(shape)
            t = Tensor(flat[start:end].reshape(shape), requires_grad=grad is not None)
            if grad is not None:
                t.grad = grad[start:end].reshape(shape)
            self._params[name] = t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs in name order."""
        return list(self._params.items())

    def values(self) -> np.ndarray:
        return self.flat.copy()


class UNet:
    """Forward network over a ParamStore holding param_layout(cfg)."""

    def __init__(self, cfg: UNetConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store

    def forward(self, x, training: bool = False, seed: int = 0) -> Tensor:
        """Logit map (1, H, W): the head convolution, before any sigmoid.

        Dropout fires only when `training` is set, with masks derived from
        `seed`; eval mode is deterministic."""
        cfg = self.cfg
        s = self.store
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        if x.data.ndim != 3 or x.data.shape[0] != cfg.input_channels:
            raise OctCystError(
                f"expected ({cfg.input_channels}, H, W) input, got {x.data.shape}"
            )
        H, W = x.data.shape[1:]
        div = 2**cfg.depth
        if H % div or W % div:
            raise OctCystError(f"spatial dims {H}x{W} not divisible by {div}")

        skips = []
        cur = x
        for lvl in range(1, cfg.depth + 1):
            cur = conv2d(cur, s[f"enc{lvl}.conv1.w"], s[f"enc{lvl}.conv1.b"], relu=True)
            drop = (cfg.dropout_per_level[lvl - 1], derive_seed(seed, lvl)) if training else None
            cur = conv2d(cur, s[f"enc{lvl}.conv2.w"], s[f"enc{lvl}.conv2.b"], relu=True, drop=drop)
            skips.append(cur)
            cur = max_pool2(cur)

        cur = conv2d(cur, s["bott.conv1.w"], s["bott.conv1.b"], relu=True)
        branches = [
            (s[f"bott.aspp.branch{i}.w"], s[f"bott.aspp.branch{i}.b"], r)
            for i, r in enumerate(cfg.aspp_rates)
        ]
        cur = aspp(cur, branches, s["bott.aspp.fuse.w"], s["bott.aspp.fuse.b"])
        drop = (cfg.dropout_per_level[cfg.depth], derive_seed(seed, cfg.depth + 1)) if training else None
        cur = conv2d(cur, s["bott.conv2.w"], s["bott.conv2.b"], relu=True, drop=drop)

        for lvl in range(cfg.depth, 0, -1):
            g = transposed_conv2d(cur, s[f"dec{lvl}.up.w"])
            gate = (s[f"dec{lvl}.gate.{n}"] for n in ("wx", "wg", "bxg", "psi", "bpsi"))
            skip = skips[lvl - 1]
            alpha = attention_gate(skip, g, *gate)
            cur = conv2d(skip, s[f"dec{lvl}.conv1.w"], s[f"dec{lvl}.conv1.b"], relu=True, more=(g,), gain=alpha)
            cur = conv2d(cur, s[f"dec{lvl}.conv2.w"], s[f"dec{lvl}.conv2.b"], relu=True)

        return conv2d(cur, s["head.w"], s["head.b"])


def param_layout(cfg: UNetConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every parameter of the network, in the
    order build_unet draws them; a bias has fan-in 0."""
    layout = []

    def conv(name: str, c_out: int, c_in: int, k: int) -> None:
        layout.append((f"{name}.w", (c_out, c_in, k, k), c_in * k * k))
        layout.append((f"{name}.b", (c_out,), 0))

    enc_out = [cfg.base_channels * 2**i for i in range(cfg.depth)]
    c_in = cfg.input_channels
    for lvl, c_out in enumerate(enc_out, 1):
        conv(f"enc{lvl}.conv1", c_out, c_in, 3)
        conv(f"enc{lvl}.conv2", c_out, c_out, 3)
        c_in = c_out

    cb = cfg.bottleneck_channels
    conv("bott.conv1", cb, c_in, 3)
    for i in range(len(cfg.aspp_rates)):
        conv(f"bott.aspp.branch{i}", cb, cb, 3)
    conv("bott.aspp.fuse", cb, len(cfg.aspp_rates) * cb, 1)
    conv("bott.conv2", cb, cb, 3)

    cur = cb
    for lvl in range(cfg.depth, 0, -1):
        half = cur // 2
        layout.append((f"dec{lvl}.up.w", (cur, half, 2, 2), cur * 4))
        c_skip = enc_out[lvl - 1]
        f_int = max(1, c_skip // 2)
        layout += [
            (f"dec{lvl}.gate.wx", (f_int, c_skip, 1, 1), c_skip),
            (f"dec{lvl}.gate.wg", (f_int, half, 1, 1), half),
            (f"dec{lvl}.gate.bxg", (f_int,), 0),
            (f"dec{lvl}.gate.psi", (1, f_int, 1, 1), f_int),
            (f"dec{lvl}.gate.bpsi", (1,), 0),
        ]
        conv(f"dec{lvl}.conv1", c_skip, 2 * c_skip, 3)
        conv(f"dec{lvl}.conv2", c_skip, c_skip, 3)
        cur = c_skip

    conv("head", 1, cur, 1)
    return layout


def build_unet(cfg: UNetConfig, dtype=np.float32) -> tuple[UNet, ParamStore]:
    """Create the network and its parameters.

    Weights are He-uniform U(+-sqrt(6/fan_in)) drawn in param_layout's
    order from one SplitMix64 stream seeded by cfg.seed; biases start at
    zero, so the same seed always yields an identical ParamStore.  Its
    `grad` starts at -0.0, to which adding any g gives g bit for bit."""
    layout = param_layout(cfg)
    n = sum(math.prod(shape) for _, shape, _ in layout)
    store = ParamStore(cfg, np.zeros(n, dtype), np.full(n, -0.0, dtype))
    pos = 0  # draws taken so far
    for name, shape, fan_in in layout:
        if fan_in:
            t = store[name]
            draws = uniform_array(cfg.seed, t.data.size, start=pos)
            t.data[...] = ((draws * 2.0 - 1.0) * math.sqrt(6.0 / fan_in)).reshape(shape)
            pos += draws.size
    return UNet(cfg, store), store
