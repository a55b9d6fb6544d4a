import math

import numpy as np

from octcyst import rng
from octcyst.rng import (
    SplitMix64,
    derive_seed,
    gaussian_array,
    mix64,
    uniform_array,
    uniform_at_least,
)


# Scalar oracles of the vector draws, one stream output at a time.


def _uniform(rng: SplitMix64) -> float:
    """Uniform in [0, 1): the top 53 bits of one output."""
    return (rng.next_u64() >> 11) * 2.0**-53


def _gaussian(rng: SplitMix64) -> float:
    """Standard normal via Box-Muller on two consecutive outputs."""
    u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
    u2 = (rng.next_u64() >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def test_scalar_and_vector_uniforms_agree():
    rng = SplitMix64(12345)
    scalar = np.array([_uniform(rng) for _ in range(100)])
    assert np.array_equal(scalar, uniform_array(12345, 100))


def test_scalar_and_vector_gaussians_agree():
    rng = SplitMix64(98765)
    scalar = np.array([_gaussian(rng) for _ in range(50)])
    assert np.array_equal(scalar, gaussian_array(98765, 50))


def test_uniform_array_offset_continues_stream():
    whole = uniform_array(7, 20)
    head = uniform_array(7, 8)
    tail = uniform_array(7, 12, start=8)
    assert np.array_equal(whole, np.concatenate([head, tail]))


def test_uniform_at_least_equals_float_comparison():
    for seed in (1, 2**63, 2**64 - 1):
        for n in (1, 10, 1001):
            u = uniform_array(seed, n)
            # the drawn values themselves put p exactly on a draw
            for p in (0.0, 0.1, 0.2, 0.5, 1.0 - 2**-53, u[0], u[-1]):
                assert np.array_equal(uniform_at_least(seed, n, float(p)), u >= p)


def test_uniform_at_least_is_seamless_across_blocks(monkeypatch):
    B = 8
    monkeypatch.setattr(rng, "_BLOCK", B)
    for seed in (1, 2**64 - 1):
        for n in (0, 1, B - 1, B, B + 1, 3 * B + 7):
            u = uniform_array(seed, n)
            # p on the draws that open and close blocks, and on the last one
            on_draws = [u[i] for i in (0, B - 1, B, n - 1) if 0 <= i < n]
            for p in (0.0, 0.1, 0.5, 1.0 - 2**-53, *on_draws):
                got = uniform_at_least(seed, n, float(p))
                assert got.dtype == np.bool_ and got.shape == (n,)
                assert np.array_equal(got, u >= p)


def test_same_seed_same_sequence():
    a = SplitMix64(3)
    b = SplitMix64(3)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_uniform_range():
    vals = uniform_array(11, 10000)
    assert vals.min() >= 0.0 and vals.max() < 1.0


def test_gaussian_moments():
    vals = gaussian_array(13, 200000)
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 1.0) < 0.01


def test_below_bounds():
    rng = SplitMix64(5)
    vals = [rng.below(7) for _ in range(1000)]
    assert min(vals) >= 0 and max(vals) <= 6
    assert len(set(vals)) == 7


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(20))
    b = list(range(20))
    SplitMix64(9).shuffle(a)
    SplitMix64(9).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))
    assert a != list(range(20))


def test_derive_seed_varies_with_salts():
    seeds = {derive_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_mix64_is_stable():
    # frozen values guard against accidental constant changes
    assert mix64(0) == 0
    assert mix64(1) == mix64(1)
    assert mix64(1) != mix64(2)
