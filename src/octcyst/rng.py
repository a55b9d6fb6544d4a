"""Deterministic random numbers.

Every random draw in the repository comes from the SplitMix64 sequence of
a 64-bit seed, so any run is reproducible from its seeds alone and results
can be asserted byte-for-byte in tests.  Gaussian variates use Box-Muller
on two consecutive outputs.

The state after n steps is seed + n*GOLDEN (mod 2^64), which makes the
sequence indexable: `uniform_array` / `gaussian_array` compute their draws
from the same outputs that `SplitMix64.next_u64` steps through one at a time.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_INV_2_53 = 1.0 / (1 << 53)

# Draws per pass of `uniform_at_least`: 64 Ki uint64 (512 KiB per scratch
# array) keeps its working set inside a 4 MiB L2 cache.
_BLOCK = 1 << 16


def mix64(x: int) -> int:
    """SplitMix64 finalizer: scrambles a 64-bit value."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *salts: int) -> int:
    """Derive an independent child seed from a base seed and salt values."""
    s = seed & _MASK
    for t in salts:
        s = mix64((s + _GOLDEN + (t & _MASK)) & _MASK)
    return s


class SplitMix64:
    """Scalar SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _mix64_vec(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The finalizer on a uint64 array, in place; t is scratch of z's size."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _u64_block(seed: int, start: int, n: int) -> np.ndarray:
    """Outputs start+1 .. start+n of the stream, as uint64."""
    state = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    state *= np.uint64(_GOLDEN)
    state += np.uint64(seed & _MASK)
    return _mix64_vec(state, np.empty_like(state))


def uniform_array(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n uniforms in [0, 1), the top 53 bits of outputs start+1 .. start+n."""
    bits = _u64_block(seed, start, n)
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform_at_least(seed: int, n: int, p: float) -> np.ndarray:
    """Booleans equal to `uniform_array(seed, n) >= p`, compared on the
    integer draws: (bits >> 11) * 2**-53 >= p is exact in float64, so it
    holds exactly when (bits >> 11) >= ceil(p * 2**53).  The draws are
    made _BLOCK at a time in two reused scratch arrays."""
    threshold = np.uint64(math.ceil(p * (1 << 53)))
    out = np.empty(n, dtype=bool)
    steps = np.arange(1, min(n, _BLOCK) + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = np.empty_like(steps)
    t = np.empty_like(steps)
    for i in range(0, n, _BLOCK):
        k = min(_BLOCK, n - i)
        # state i+j+1 = (j+1)*GOLDEN + (seed + i*GOLDEN), mod 2**64
        np.add(steps[:k], np.uint64((seed + i * _GOLDEN) & _MASK), out=z[:k])
        bits = _mix64_vec(z[:k], t[:k])
        bits >>= np.uint64(11)
        np.greater_equal(bits, threshold, out=out[i : i + k])
    return out


def gaussian_array(seed: int, n: int) -> np.ndarray:
    """n standard normals, by Box-Muller on output pairs from 1 on."""
    bits = _u64_block(seed, 0, 2 * n)
    u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

