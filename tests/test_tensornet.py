import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from fdcheck import max_rel_error_fd
from octcyst.errors import (
    InvalidConfig,
    NoRecordedGraph,
    OddDimension,
    ShapeMismatch,
)
from octcyst.tensornet import (
    ParamStore,
    Tensor,
    UNetConfig,
    aspp,
    attention_gate,
    backward,
    build_unet,
    conv2d,
    dropout,
    max_pool2,
    mean,
    no_grad,
    relu,
    sigmoid,
    transposed_conv2d,
)
from octcyst.rng import uniform_array
from octcyst.samplekit import Sample
from octcyst.tensornet import layers
from octcyst.trainer import Checkpoint, bce_loss, predict


# --- numpy oracles (independent of the engine) --------------------------------


def naive_conv2d(x, w, b, r):
    F, C, k, _ = w.shape
    H, W = x.shape[1:]
    half = k // 2
    y = np.zeros((F, H, W))
    for f in range(F):
        for i in range(H):
            for j in range(W):
                acc = 0.0 if b is None else b[f]
                for c in range(C):
                    for a in range(k):
                        for bb in range(k):
                            ii = i + r * (a - half)
                            jj = j + r * (bb - half)
                            if 0 <= ii < H and 0 <= jj < W:
                                acc += x[c, ii, jj] * w[f, c, a, bb]
                y[f, i, j] = acc
    return y


def conv_stride2(y, w):
    """Plain stride-2 2x2 convolution, the map whose adjoint is tconv."""
    C, F, _, _ = w.shape
    H, W = y.shape[1] // 2, y.shape[2] // 2
    out = np.zeros((C, H, W))
    for c in range(C):
        for i in range(H):
            for j in range(W):
                acc = 0.0
                for f in range(F):
                    for di in range(2):
                        for dj in range(2):
                            acc += y[f, 2 * i + di, 2 * j + dj] * w[c, f, di, dj]
                out[c, i, j] = acc
    return out


def _rand(shape, seed, spread=1.0):
    return (np.random.default_rng(seed).random(shape) * 2 - 1) * spread


# --- conv2d -------------------------------------------------------------------


def test_conv_1x1_identity():
    x = Tensor(_rand((1, 4, 5), 0))
    w = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b)
    assert np.allclose(out.data, x.data, atol=0)


def test_conv_row_example():
    # horizontal taps [1, 0, -1] on the row [1..5] with zero padding
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]]))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1] = [1.0, 0.0, -1.0]
    out = conv2d(x, Tensor(k), Tensor(np.zeros(1)))
    assert np.allclose(out.data[0, 0], [-2, -2, -2, -2, 4], atol=0)


def test_conv_matches_naive_oracle():
    x = _rand((2, 6, 7), 1)
    w = _rand((3, 2, 3, 3), 2)
    b = _rand((3,), 3)
    for r in (1, 2, 3):
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), dilation=r)
        assert np.max(np.abs(out.data - naive_conv2d(x, w, b, r))) < 1e-12


def test_dilated_equals_zero_inflated_kernel():
    x = _rand((2, 12, 14), 4)
    w = _rand((2, 2, 3, 3), 5)
    b = _rand((2,), 6)
    for r in (2, 3, 4):
        inflated = np.zeros((2, 2, 2 * r + 1, 2 * r + 1))
        inflated[:, :, ::r, ::r] = w
        a = conv2d(Tensor(x), Tensor(w), Tensor(b), dilation=r)
        bphi = conv2d(Tensor(x), Tensor(inflated), Tensor(b), dilation=1)
        assert np.max(np.abs(a.data - bphi.data)) <= 1e-6


def test_conv_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ShapeMismatch):
        conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 2, 2))))


def test_conv_gradients_match_fd():
    x = Tensor(_rand((2, 5, 6), 7))
    store = ParamStore()
    w = store.add("w", Tensor(_rand((3, 2, 3, 3), 8)))
    b = store.add("b", Tensor(_rand((3,), 9)))
    store.zero_grad()

    def loss_fn():
        return mean(conv2d(x, w, b, dilation=2)).item()

    backward(mean(conv2d(x, w, b, dilation=2)))
    assert max_rel_error_fd(store, loss_fn) <= 1e-6


@pytest.mark.parametrize("k, r", [(3, 1), (3, 2), (3, 8), (3, 12), (1, 1)])
def test_conv_row_tiles_match_naive_and_fd(monkeypatch, k, r):
    # a budget of two rows of columns tiles the 9 output rows as 2,2,2,2,1;
    # at r = 8 whole taps leave the 6 columns, at r = 12 also the 9 rows
    C, H, W = 2, 9, 6
    monkeypatch.setattr(layers, "_COL_BYTES", 2 * C * k * k * W * 8)
    store = ParamStore()
    x = store.add("x", Tensor(_rand((C, H, W), 70)))
    w = store.add("w", Tensor(_rand((3, C, k, k), 71)))
    b = store.add("b", Tensor(_rand((3,), 72)))
    weights = Tensor(_rand((3, H, W), 73))
    out = conv2d(x, w, b, dilation=r)
    assert np.max(np.abs(out.data - naive_conv2d(x.data, w.data, b.data, r))) < 1e-12

    def loss_fn():
        return mean(conv2d(x, w, b, dilation=r) * weights).item()

    store.zero_grad()
    backward(mean(conv2d(x, w, b, dilation=r) * weights))
    assert max_rel_error_fd(store, loss_fn) <= 1e-6


def test_conv_forward_memory_stays_within_one_column_tile():
    # the whole-frame column matrix would be at least twice the budget
    budget = layers._COL_BYTES
    C, F, k, W = 16, 16, 3, 256
    H = -(-2 * budget // (C * k * k * W * 4))
    rng = np.random.default_rng(74)
    w = Tensor(rng.random((F, C, k, k), dtype=np.float32))
    tracemalloc.start()
    try:
        x = Tensor(rng.random((C, H, W), dtype=np.float32))
        out = conv2d(x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.dtype == np.float32
    assert peak <= x.data.nbytes + out.data.nbytes + budget + budget // 4


# --- transposed conv ----------------------------------------------------------


def test_tconv_single_pixel():
    x = Tensor(np.array([[[3.5]]]))
    w = Tensor(np.ones((1, 1, 2, 2)))
    out = transposed_conv2d(x, w)
    assert np.allclose(out.data, np.full((1, 2, 2), 3.5), atol=0)


def test_tconv_adjoint_identity():
    rng = np.random.default_rng(11)
    for seed in range(5):
        x = _rand((3, 4, 5), 20 + seed)
        w = _rand((3, 2, 2, 2), 40 + seed)
        y = _rand((2, 8, 10), 60 + seed)
        tx = transposed_conv2d(Tensor(x), Tensor(w)).data
        lhs = float(np.sum(conv_stride2(y, w) * x))
        rhs = float(np.sum(y * tx))
        assert abs(lhs - rhs) <= 1e-5


def test_tconv_zero_kernel():
    out = transposed_conv2d(Tensor(_rand((2, 3, 3), 1)), Tensor(np.zeros((2, 2, 2, 2))))
    assert not out.data.any()


def test_tconv_doubles_dims():
    out = transposed_conv2d(Tensor(np.zeros((4, 6, 8))), Tensor(np.zeros((4, 2, 2, 2))))
    assert out.data.shape == (2, 12, 16)


# --- max pooling --------------------------------------------------------------


def test_max_pool_basic():
    out = max_pool2(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 4.0


def test_max_pool_constant():
    out = max_pool2(Tensor(np.full((2, 4, 6), 3.0)))
    assert out.data.shape == (2, 2, 3)
    assert np.all(out.data == 3.0)


def test_max_pool_odd_dims_rejected():
    with pytest.raises(OddDimension):
        max_pool2(Tensor(np.zeros((1, 3, 4))))


def test_max_pool_gradient_one_per_window():
    x = Tensor(_rand((2, 6, 8), 13), requires_grad=True)
    out = max_pool2(x)
    backward(out)
    g = x.grad.reshape(2, 3, 2, 4, 2).transpose(0, 1, 3, 2, 4).reshape(2, 3, 4, 4)
    assert np.all(g.sum(axis=-1) == 1.0)
    assert np.all((g == 0) | (g == 1))


def test_max_pool_tie_breaks_to_first_in_row_major_order():
    x = Tensor(np.full((1, 4, 4), 2.0), requires_grad=True)
    backward(max_pool2(x))
    expected = np.zeros((1, 4, 4))
    expected[0, ::2, ::2] = 1.0  # top-left corner of every window
    assert np.array_equal(x.grad, expected)


def test_max_pool_gradient_matches_fd():
    data = _rand((1, 4, 4), 17)
    store = ParamStore()
    x = store.add("x", Tensor(data))
    store.zero_grad()

    def loss_fn():
        return mean(max_pool2(x)).item()

    backward(mean(max_pool2(x)))
    assert max_rel_error_fd(store, loss_fn) <= 1e-6


def _pool_oracle(x, g):
    """The reshape/argmax formulation of 2x2 max pooling: the pooled values,
    and the input gradient for the upstream gradient g."""
    C, H, W = x.shape
    windows = x.reshape(C, H // 2, 2, W // 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, H // 2, W // 2, 4)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    gw = np.zeros_like(windows)
    np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
    return out, gw.reshape(C, H // 2, W // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, H, W)


def _tie_windows():
    """Two 2x2 windows per channel: in the first, the 15 nonempty sets of
    positions holding the maximum and then -0.0 tied with a later 0.0; in
    the second, 0.0 tied with a later -0.0.  The first of a tie must win."""
    x = np.full((16, 2, 4), -1.0, dtype=np.float32)
    for bits in range(1, 16):
        x[bits - 1, :, :2].flat[[b for b in range(4) if bits >> b & 1]] = 1.0
    x[15, 0, 1], x[15, 1, 0] = -0.0, 0.0
    x[:, 0, 2:] = [0.0, -0.0]
    return x


@pytest.mark.parametrize("case", ["random32", "random64", "quantized", "ties"])
def test_max_pool_values_and_routed_gradient_match_the_argmax_oracle(case):
    rng = np.random.default_rng(61)
    data = {
        "random32": lambda: rng.random((4, 8, 16), dtype=np.float32),
        "random64": lambda: rng.random((2, 16, 8)),
        "quantized": lambda: rng.choice(np.array([0.0, 0.5, 1.0], dtype=np.float32), (2, 8, 16)),
        "ties": _tie_windows,
    }[case]()
    x = Tensor(data, requires_grad=True)
    out = max_pool2(x)
    g = rng.standard_normal(out.data.shape).astype(data.dtype)
    # the pooled size is a power of two, so mean's 1/size scaling is exact
    backward(mean(out * Tensor(g)))
    want_out, want_grad = _pool_oracle(data, g / g.size)
    assert out.data.dtype == data.dtype
    assert out.data.tobytes() == want_out.tobytes()
    assert x.grad.tobytes() == want_grad.tobytes()


def test_max_pool_nan_in_a_window_gives_nan_out():
    for pos in range(4):
        data = np.ones((1, 2, 4), dtype=np.float32)
        data[0].flat[[0, 1, 4, 5][pos]] = np.nan  # one position of the first window
        out = max_pool2(Tensor(data)).data
        assert np.isnan(out[0, 0, 0])
        assert out[0, 0, 1] == 1.0


# --- attention gate -----------------------------------------------------------


def _gate_params(c_skip, c_gate, f_int, seed, zero_psi=False):
    return dict(
        w_x=Tensor(_rand((f_int, c_skip, 1, 1), seed)),
        w_g=Tensor(_rand((f_int, c_gate, 1, 1), seed + 1)),
        b_xg=Tensor(_rand((f_int,), seed + 2)),
        psi=Tensor(np.zeros((1, f_int, 1, 1)) if zero_psi else _rand((1, f_int, 1, 1), seed + 3)),
        b_psi=Tensor(np.zeros(1) if zero_psi else _rand((1,), seed + 4)),
    )


def test_gate_zero_psi_halves_input():
    x = Tensor(_rand((4, 3, 3), 31))
    g = Tensor(_rand((4, 3, 3), 32))
    out = attention_gate(x, g, **_gate_params(4, 4, 2, 33, zero_psi=True))
    assert np.allclose(out.data, 0.5 * x.data, atol=0)


def test_gate_alpha_strictly_in_unit_interval():
    for seed in range(10):
        x = Tensor(_rand((4, 3, 3), 100 + seed, spread=3.0))
        g = Tensor(_rand((4, 3, 3), 200 + seed, spread=3.0))
        p = _gate_params(4, 4, 2, 300 + seed)
        out = attention_gate(x, g, **p)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = out.data / x.data
        alpha = alpha[np.isfinite(alpha)]
        assert alpha.min() > 0.0 and alpha.max() < 1.0


def test_gate_spatial_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        attention_gate(
            Tensor(np.zeros((4, 3, 3))),
            Tensor(np.zeros((4, 2, 3))),
            **_gate_params(4, 4, 2, 1),
        )


def test_gate_gradients_match_fd():
    x = Tensor(_rand((1, 4, 3, 3)[1:], 41))
    g = Tensor(_rand((4, 3, 3), 42))
    store = ParamStore()
    p = dict(
        w_x=store.add("w_x", Tensor(_rand((2, 4, 1, 1), 43))),
        w_g=store.add("w_g", Tensor(_rand((2, 4, 1, 1), 44))),
        b_xg=store.add("b_xg", Tensor(_rand((2,), 45))),
        psi=store.add("psi", Tensor(_rand((1, 2, 1, 1), 46))),
        b_psi=store.add("b_psi", Tensor(_rand((1,), 47))),
    )
    store.zero_grad()

    def loss_fn():
        return mean(attention_gate(x, g, **p)).item()

    backward(mean(attention_gate(x, g, **p)))
    assert max_rel_error_fd(store, loss_fn) <= 1e-4


# --- ASPP ---------------------------------------------------------------------


def _aspp_params(c, rates, seed, zero=False, beta=0.0):
    def w(shape, s):
        return Tensor(np.zeros(shape) if zero else _rand(shape, s))

    branches = [
        (w((c, c, 3, 3), seed + i), w((c,), seed + 50 + i), r) for i, r in enumerate(rates)
    ]
    fuse_b = np.full(c, beta) if zero else _rand((c,), seed + 99)
    return dict(
        branches=branches, fuse_w=w((c, len(rates) * c, 1, 1), seed + 98), fuse_b=Tensor(fuse_b)
    )


def test_aspp_preserves_spatial_dims():
    x = Tensor(_rand((4, 6, 8), 51))
    out = aspp(x, **_aspp_params(4, (1, 2, 4), 52))
    assert out.data.shape == (4, 6, 8)


def test_aspp_zero_weights_constant_bias():
    x = Tensor(_rand((3, 5, 5), 53))
    out = aspp(x, **_aspp_params(3, (1, 2), 54, zero=True, beta=2.5))
    assert np.all(out.data == 2.5)


def test_aspp_equals_naive_composition():
    x = _rand((3, 6, 7), 55)
    p = _aspp_params(3, (1, 2, 4), 56)
    out = aspp(Tensor(x), **p)
    branch_outs = [
        naive_conv2d(x, w.data, b.data, r)
        for w, b, r in p["branches"]
    ]
    cat = np.concatenate(branch_outs, axis=0)
    expected = naive_conv2d(cat, p["fuse_w"].data, p["fuse_b"].data, 1)
    assert np.max(np.abs(out.data - expected)) <= 1e-6


# --- dropout ------------------------------------------------------------------


def test_dropout_zero_rate_is_identity():
    x = Tensor(_rand((2, 4, 4), 61))
    assert dropout(x, 0.0, 1) is x


def test_dropout_inverted_scaling_values():
    x = Tensor(np.ones((8, 8)))
    out = dropout(x, 0.25, 7)
    for v in np.unique(out.data):
        assert v == 0.0 or v == pytest.approx(1.0 / 0.75)


def test_dropout_seeded_expectation_matches_eval():
    x = Tensor(np.random.default_rng(3).random((3, 4, 4)) + 0.5)
    acc = np.zeros_like(x.data)
    n = 1000
    for seed in range(n):
        acc += dropout(x, 0.2, seed).data
    rel = np.abs(acc / n - x.data) / x.data
    assert rel.max() <= 0.05


def test_dropout_mask_is_the_uniform_draw_definition_bit_for_bit():
    for seed in (0, 5, 2**64 - 1):
        for shape in ((1,), (3, 7), (4, 16, 24)):
            x = Tensor(np.random.default_rng(seed % 97).random(shape, dtype=np.float32) + 0.5)
            u = uniform_array(seed, x.data.size).reshape(shape)
            for p in (0.1, 0.2, 0.5, float(u.flat[0])):
                mask = ((u >= p) / (1.0 - p)).astype(np.float32)
                assert np.array_equal(dropout(x, p, seed).data, x.data * mask)


def test_dropout_deterministic_per_seed():
    x = Tensor(np.ones((5, 5)))
    a = dropout(x, 0.3, 123).data
    b = dropout(x, 0.3, 123).data
    assert np.array_equal(a, b)


# --- network construction ------------------------------------------------------


def _tiny_cfg(**kw):
    base = dict(
        input_channels=2,
        base_channels=2,
        depth=2,
        bottleneck_channels=8,
        aspp_rates=(1, 2),
        dropout_per_level=(0.1, 0.1, 0.2),
        seed=5,
    )
    base.update(kw)
    return UNetConfig(**base)


def test_build_unet_same_seed_identical():
    _, s1 = build_unet(_tiny_cfg())
    _, s2 = build_unet(_tiny_cfg())
    assert [n for n, _ in s1.items()] == [n for n, _ in s2.items()]
    for (n1, t1), (_, t2) in zip(s1.items(), s2.items()):
        assert np.array_equal(t1.data, t2.data), n1


def test_build_unet_production_init_bits_are_pinned():
    # SHA-256 of the default network's initial weights, fixed across versions
    _, store = build_unet(UNetConfig(seed=1))
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(name.encode() + t.data.tobytes())
    assert h.hexdigest() == "a57f1e1a60009a95a8da3b47335066c8bf00739865715100590a0e5140484319"


def test_build_unet_different_seed_differs():
    _, s1 = build_unet(_tiny_cfg(seed=1))
    _, s2 = build_unet(_tiny_cfg(seed=2))
    assert any(
        not np.array_equal(t1.data, t2.data) for (_, t1), (_, t2) in zip(s1.items(), s2.items())
    )


def test_build_unet_param_count_hand_enumeration():
    cfg = UNetConfig(
        input_channels=2,
        base_channels=1,
        depth=2,
        bottleneck_channels=4,
        aspp_rates=(1, 2, 4, 8, 16),
        dropout_per_level=(0.1, 0.1, 0.2),
        seed=0,
    )
    _, store = build_unet(cfg)
    # hand enumeration of every layer's shapes
    enc1 = (1 * 2 * 9 + 1) + (1 * 1 * 9 + 1)
    enc2 = (2 * 1 * 9 + 2) + (2 * 2 * 9 + 2)
    bott = (4 * 2 * 9 + 4) + 5 * (4 * 4 * 9 + 4) + (4 * 20 + 4) + (4 * 4 * 9 + 4)
    dec2 = (4 * 2 * 4) + (1 * 2 + 1 * 2 + 1 + 1 + 1) + (2 * 4 * 9 + 2) + (2 * 2 * 9 + 2)
    dec1 = (2 * 1 * 4) + (1 * 1 + 1 * 1 + 1 + 1 + 1) + (1 * 2 * 9 + 1) + (1 * 1 * 9 + 1)
    head = 1 * 1 + 1
    expected = enc1 + enc2 + bott + dec2 + dec1 + head
    assert sum(t.data.size for _, t in store.items()) == expected


def test_build_unet_invalid_configs():
    with pytest.raises(InvalidConfig):
        build_unet(_tiny_cfg(bottleneck_channels=16))
    with pytest.raises(InvalidConfig):
        build_unet(_tiny_cfg(aspp_rates=()))
    with pytest.raises(InvalidConfig):
        build_unet(_tiny_cfg(dropout_per_level=(0.1, 0.1)))


def test_zero_weights_give_half_output():
    net, store = build_unet(_tiny_cfg())
    for _, t in store.items():
        t.data[...] = 0.0
    out = net.forward(np.random.default_rng(0).random((2, 8, 8)).astype(np.float32))
    assert np.all(out.data == 0.0)  # logit 0 is p = 0.5


def test_forward_output_shape_and_range():
    cfg = _tiny_cfg()
    net, store = build_unet(cfg)
    x = np.random.default_rng(1).random((2, 16, 24)).astype(np.float32)
    out = net.forward(x)
    assert out.data.shape == (1, 16, 24)
    prob, _ = predict(Checkpoint(cfg, store.values()), Sample(x, (0, 0), (16, 24)))
    assert prob.shape == (16, 24)
    assert prob.min() > 0.0 and prob.max() < 1.0


def test_forward_eval_deterministic():
    net, _ = build_unet(_tiny_cfg())
    x = np.random.default_rng(2).random((2, 8, 8)).astype(np.float32)
    a = net.forward(x).data
    b = net.forward(x).data
    assert np.array_equal(a, b)


def test_forward_training_dropout_changes_output():
    net, _ = build_unet(_tiny_cfg())
    x = np.random.default_rng(3).random((2, 8, 8)).astype(np.float32)
    eval_out = net.forward(x).data
    train_a = net.forward(x, training=True, seed=1).data
    train_b = net.forward(x, training=True, seed=1).data
    train_c = net.forward(x, training=True, seed=2).data
    assert np.array_equal(train_a, train_b)
    assert not np.array_equal(train_a, train_c)
    assert not np.array_equal(train_a, eval_out)


def test_forward_rejects_bad_shapes():
    net, _ = build_unet(_tiny_cfg())
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((3, 8, 8), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((2, 6, 8), dtype=np.float32))


def test_set_values_rejects_unknown_missing_and_misshapen_names():
    _, store = build_unet(_tiny_cfg())
    values = store.values()
    with pytest.raises(ShapeMismatch, match="unknown"):
        store.set_values({**values, "extra.w": np.zeros(1, dtype=np.float32)})
    with pytest.raises(ShapeMismatch, match="head.w"):
        store.set_values({n: v for n, v in values.items() if n != "head.w"})
    with pytest.raises(ShapeMismatch, match="head.b"):
        store.set_values({**values, "head.b": np.zeros(2, dtype=np.float32)})
    store.set_values(values)


# --- backward ------------------------------------------------------------------


def test_backward_requires_recorded_graph():
    t = Tensor(np.zeros((2, 2)))
    with pytest.raises(NoRecordedGraph):
        backward(t)
    net, _ = build_unet(_tiny_cfg())
    with no_grad():
        out = net.forward(np.zeros((2, 8, 8), dtype=np.float32))
    with pytest.raises(NoRecordedGraph):
        backward(out)


def test_backward_frees_the_graph_without_the_cycle_collector():
    gc.disable()
    try:
        x = Tensor(np.arange(-1.0, 3.0), requires_grad=True)
        h = relu(x * 2.0)
        h_data = weakref.ref(h.data)
        loss = mean(h)
        del h
        backward(loss)
        assert h_data() is None
    finally:
        gc.enable()
    assert np.array_equal(x.grad, [0.0, 0.0, 0.5, 0.5])


def _chain_backward_peak(n_ops):
    """tracemalloc peak while `backward` runs through a chain of n_ops
    element-wise ops over a 1 MiB float32 tensor; the forward activations
    were allocated before tracing starts."""
    x = Tensor(np.random.default_rng(3).random(1 << 18, dtype=np.float32), requires_grad=True)
    ops = (lambda t: t * 1.5, lambda t: t + 0.25, relu, sigmoid)
    h = x
    for i in range(n_ops):
        h = ops[i % 4](h)
    loss = mean(h)
    del h
    tracemalloc.start()
    try:
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.data.shape
    return peak


def test_backward_peak_memory_does_not_grow_with_chain_length():
    assert _chain_backward_peak(40) <= 2 * _chain_backward_peak(10)


def test_backward_frees_activations_before_it_returns():
    # the first op's closure runs last; by then every later activation
    # must already be gone, not held until backward returns
    gc.disable()
    try:
        x = Tensor(np.arange(-2.0, 2.0), requires_grad=True)
        first = x * 2.0
        h = first
        later = []
        for _ in range(5):
            h = relu(h + 0.5)
            later.append(weakref.ref(h.data))
        loss = mean(h)
        del h
        freed = []
        closure = first._backward

        def probe():
            freed.append([ref() is None for ref in later])
            closure()

        first._backward = probe
        backward(loss)
    finally:
        gc.enable()
    assert freed == [[True] * 5]


def test_backward_keeps_gradients_only_on_leaves_and_the_loss():
    x = Tensor(np.array([-1.0, -0.25, 0.5, 2.0], dtype=np.float32), requires_grad=True)
    w = Tensor(np.array([3.0, -2.0, 0.5, 1.5], dtype=np.float32), requires_grad=True)
    a = x * w
    b = relu(a + 0.5)
    c = b * 3.0
    loss = mean(c)
    backward(loss)
    assert a.grad is None and b.grad is None and c.grad is None
    assert loss.grad == 1.0
    # the closures' own arithmetic, in their order
    g = (np.full(4, 0.25, dtype=np.float32) * np.float32(3.0)) * (a.data + np.float32(0.5) > 0)
    assert np.array_equal(x.grad, g * w.data)
    assert np.array_equal(w.grad, g * x.data)


def test_second_backward_on_consumed_graph_raises():
    x = Tensor(np.arange(4.0), requires_grad=True)
    loss = mean(x * 2.0)
    backward(loss)
    with pytest.raises(NoRecordedGraph):
        backward(loss)
    assert np.array_equal(x.grad, np.full(4, 0.5))


def test_backward_linearity_in_loss_scale():
    net, store = build_unet(_tiny_cfg(), dtype=np.float64)
    x = np.random.default_rng(5).random((2, 8, 8))
    target = (np.random.default_rng(6).random((1, 8, 8)) > 0.7).astype(float)

    store.zero_grad()
    backward(bce_loss(net.forward(x), target))
    g1 = {n: t.grad.copy() for n, t in store.items()}

    store.zero_grad()
    backward(bce_loss(net.forward(x), target) * 3.0)
    for n, t in store.items():
        denom = np.maximum(np.abs(t.grad), 1e-12)
        assert np.max(np.abs(t.grad - 3.0 * g1[n]) / denom) <= 1e-6


def test_backward_head_gradient_closed_form():
    # zero weights: p == 0.5 everywhere, head input is zero, so only the
    # head bias receives gradient: mean over pixels of (p - t) = 0.5
    net, store = build_unet(_tiny_cfg(), dtype=np.float64)
    for _, t in store.items():
        t.data[...] = 0.0
    x = np.random.default_rng(7).random((2, 8, 8))
    target = np.zeros((1, 8, 8))
    store.zero_grad()
    out = net.forward(x)
    backward(bce_loss(out, target))
    p = 1.0 / (1.0 + np.exp(-out.data))
    chain = (p - target) / (p * (1.0 - p)) * (p * (1.0 - p))  # dL/dp * sigmoid'
    assert abs(store["head.b"].grad[0] - chain.mean()) <= 1e-8
    assert abs(store["head.b"].grad[0] - 0.5) <= 1e-8
    assert np.max(np.abs(store["head.w"].grad)) == 0.0


def test_full_network_gradients_match_fd():
    cfg = UNetConfig(
        input_channels=2,
        base_channels=2,
        depth=1,
        bottleneck_channels=4,
        aspp_rates=(1, 2),
        dropout_per_level=(0.1, 0.1),
        seed=7,
    )
    net, store = build_unet(cfg, dtype=np.float64)
    x = np.random.default_rng(8).random((2, 8, 8))
    target = (np.random.default_rng(9).random((1, 8, 8)) > 0.8).astype(float)

    def loss_fn():
        return bce_loss(net.forward(x), target).item()

    store.zero_grad()
    backward(bce_loss(net.forward(x), target))
    assert max_rel_error_fd(store, loss_fn) <= 1e-4


def test_first_gradient_is_an_owned_copy_in_the_tensor_dtype():
    from octcyst.tensornet.tensor import _accum

    t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g = np.array([1.0, -0.5, 2.0])
    _accum(t, g)
    g[0] = 9.0
    assert t.grad.dtype == np.float32
    assert np.array_equal(t.grad, [1.0, -0.5, 2.0])
    _accum(t, np.ones(3))
    assert np.array_equal(t.grad, [2.0, 0.5, 3.0])
    assert np.array_equal(g, [9.0, -0.5, 2.0])
