import ctypes
import gc
import hashlib
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from fdcheck import max_rel_error_fd, weighted_sum
from octcyst.errors import InvalidConfig, OctCystError
from octcyst.tensornet import (
    Tensor,
    UNetConfig,
    aspp,
    attention_gate,
    backward,
    build_unet,
    param_layout,
    conv2d,
    keep_large_blocks_on_heap,
    max_pool2,
    mean,
    transposed_conv2d,
)
from octcyst.rng import uniform_array
from octcyst.samplekit import Sample
from octcyst.tensornet import layers
from octcyst.tensornet.tensor import _sigmoid_data
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


def naive_conv2d_grads(x, w, go, r):
    """Input and weight gradients of naive_conv2d(x, w, None, r) for the
    upstream gradient go."""
    F, C, k, _ = w.shape
    H, W = x.shape[1:]
    half = k // 2
    dx, dw = np.zeros(x.shape), np.zeros(w.shape)
    for f in range(F):
        for i in range(H):
            for j in range(W):
                for c in range(C):
                    for a in range(k):
                        for bb in range(k):
                            ii = i + r * (a - half)
                            jj = j + r * (bb - half)
                            if 0 <= ii < H and 0 <= jj < W:
                                dx[c, ii, jj] += go[f, i, j] * w[f, c, a, bb]
                                dw[f, c, a, bb] += go[f, i, j] * x[c, ii, jj]
    return dx, dw


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
    with pytest.raises(OctCystError, match=r"kernel \(1, 3, 3, 3\) incompatible with input"):
        conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(OctCystError, match=r"kernel \(1, 2, 2, 2\) incompatible with input"):
        conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 2, 2))))


def test_conv_gradients_match_fd():
    x = Tensor(_rand((2, 5, 6), 7))
    w = Tensor(_rand((3, 2, 3, 3), 8), requires_grad=True)
    b = Tensor(_rand((3,), 9), requires_grad=True)
    store = {"w": w, "b": b}

    def loss_fn():
        return mean(conv2d(x, w, b, dilation=2)).item()

    backward(mean(conv2d(x, w, b, dilation=2)))
    assert max_rel_error_fd(store, loss_fn) <= 1e-6


@pytest.mark.parametrize("k, r", [(3, 1), (3, 2), (3, 8), (3, 12), (1, 1)])
def test_conv_row_tiles_match_naive_and_fd(monkeypatch, k, r):
    # a budget of the tap matrix of two output rows (C*k rows of 2 + 2p
    # input rows) plus their F-row product tiles the forward's 9 output rows
    # as 2,2,2,2,1; the input and weight gradients, whose channel counts
    # differ, tile as they fit.  At r = 8 whole taps leave the 6 columns,
    # at r = 12 also the 9 rows
    C, F, H, W = 2, 3, 9, 6
    p = r * (k // 2)
    monkeypatch.setattr(layers, "_COL_BYTES", (C * k * (2 + 2 * p) + F * 2) * W * 8)
    heights = []
    mec_tiles = layers._mec_tiles

    def recorded(*args):
        heights.append([])
        for i0, i1, taps in mec_tiles(*args):
            heights[-1].append(i1 - i0)
            yield i0, i1, taps

    monkeypatch.setattr(layers, "_mec_tiles", recorded)
    x = Tensor(_rand((C, H, W), 70), requires_grad=True)
    w = Tensor(_rand((F, C, k, k), 71), requires_grad=True)
    b = Tensor(_rand((F,), 72), requires_grad=True)
    store = {"x": x, "w": w, "b": b}
    weights = _rand((F, H, W), 73)
    out = conv2d(x, w, b, dilation=r)
    assert np.max(np.abs(out.data - naive_conv2d(x.data, w.data, b.data, r))) < 1e-12
    # a 1x1 kernel over one group multiplies the input directly, untiled
    assert heights == ([[2, 2, 2, 2, 1]] if k > 1 else [])

    def loss_fn():
        return weighted_sum(conv2d(x, w, b, dilation=r), weights).item()

    heights.clear()
    backward(weighted_sum(conv2d(x, w, b, dilation=r), weights))
    # the forward, then one tap matrix of the output gradient for both
    # gradients; a 1x1 kernel's gradients are one GEMM each, untiled
    assert len(heights) == (2 if k > 1 else 0) and all(len(h) > 1 for h in heights)
    assert all(sum(h) == H for h in heights)
    assert max_rel_error_fd(store, loss_fn) <= 1e-6


def _forward_memory(n_groups, gained):
    """tracemalloc peak of a conv2d over n_groups channel groups, the first
    one times a gain if gained, made while tracing, and the bound: the
    groups, the gain, the output and one tile."""
    # the whole-frame tap matrix would be at least twice the budget, and
    # a concatenated copy of the groups would add two thirds of it; a
    # gained case is taller, so that its first group alone, and so that
    # group times the gain, is twice the budget
    budget = layers._COL_BYTES
    C, F, k, W = 16, 16, 3, 256
    H = -(-2 * budget // ((C // n_groups if gained else C * k) * W * 4))
    rng = np.random.default_rng(74)
    w = Tensor(rng.random((F, C, k, k), dtype=np.float32))
    tracemalloc.start()
    try:
        xs = [Tensor(rng.random((C // n_groups, H, W), dtype=np.float32)) for _ in range(n_groups)]
        gains = [Tensor(rng.random((1, H, W), dtype=np.float32))] if gained else []
        out = conv2d(xs[0], w, more=tuple(xs[1:]), gain=gains[0] if gained else None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.dtype == np.float32
    held = sum(x.data.nbytes for x in xs + gains)
    return peak, held + out.data.nbytes + budget + budget // 4


def test_conv_forward_memory_stays_within_one_column_tile():
    for n_groups, gained in ((1, False), (2, False), (1, True)):
        peak, bound = _forward_memory(n_groups, gained)
        assert peak <= bound, (n_groups, gained)


def _backward_memory(n_groups, gained, inputs):
    """tracemalloc peak of a conv2d's backward over n_groups channel
    groups, the first one times a gain if gained, which need a gradient
    only if inputs, and the bound: what backward adds, with one tile."""
    # the whole-frame tap matrices of the input and of the output gradient
    # would each be at least twice the budget, and a concatenated copy of
    # the groups would add two thirds of it; a gained case is taller, so
    # that its first group alone, and so that group times the gain or
    # times its gradient, is twice the budget
    budget = layers._COL_BYTES
    C, F, k, W = 16, 16, 3, 256
    H = -(-2 * budget // ((C // n_groups if gained else C * k) * W * 4))
    rng = np.random.default_rng(75)
    xs = [
        Tensor(rng.random((C // n_groups, H, W), dtype=np.float32), requires_grad=inputs)
        for _ in range(n_groups)
    ]
    gains = [Tensor(rng.random((1, H, W), dtype=np.float32), requires_grad=inputs)] if gained else []
    w = Tensor(rng.random((F, C, k, k), dtype=np.float32), requires_grad=True)
    out = conv2d(xs[0], w, more=tuple(xs[1:]), gain=gains[0] if gained else None)
    # the groups, the gain, w and the output exist before tracing starts,
    # so the bound counts only what backward adds: the output gradient, the
    # one input-gradient array the groups' views share and the gain's
    # gradient (none without inputs), dw and one tile's scratch
    tracemalloc.start()
    try:
        out.grad = rng.random((F, H, W), dtype=np.float32)
        out._backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all((x.grad is not None) == inputs for x in xs + gains)
    assert all(x.grad.dtype == np.float32 for x in xs + gains if inputs) and w.grad.dtype == np.float32
    dx = sum(x.grad.nbytes for x in xs + gains if inputs)
    return peak, out.grad.nbytes + dx + w.grad.nbytes + budget + budget // 4


def test_conv_backward_memory_stays_within_one_column_tile():
    # the last case, whose input needs no gradient, allocates no input
    # gradient: one would take two thirds of the budget, past the slack
    for n_groups, gained, inputs in ((1, False, True), (2, False, True), (1, True, True), (1, False, False)):
        peak, bound = _backward_memory(n_groups, gained, inputs)
        assert peak <= bound, (n_groups, gained, inputs)


# --- conv2d over channel groups -------------------------------------------------


def _count_mec_tiles(monkeypatch):
    """Wrap layers._mec_tiles; returns the list that gets each later call's
    number of row tiles."""
    tiles = []
    mec_tiles = layers._mec_tiles

    def counted(*args):
        tiles.append(0)
        for tile in mec_tiles(*args):
            tiles[-1] += 1
            yield tile

    monkeypatch.setattr(layers, "_mec_tiles", counted)
    return tiles


def _grouped_and_concatenated(monkeypatch, sizes, k, r, seed):
    """Output and gradients (out, b, w, then each group's) of a float32
    conv2d over channel groups of the given sizes and of conv2d over their
    np.concatenate, seeded by the same upstream gradient; also the number
    of row tiles each _mec_tiles call of the grouped run made."""
    rng = np.random.default_rng(seed)
    H, W, F = 11, 7, 3
    groups = [rng.standard_normal((c, H, W)).astype(np.float32) for c in sizes]
    w = rng.standard_normal((F, sum(sizes), k, k)).astype(np.float32)
    b = rng.standard_normal(F).astype(np.float32)
    u = rng.standard_normal((F, H, W)).astype(np.float32)
    tiles = _count_mec_tiles(monkeypatch)
    runs, calls = [], []
    for inputs in (groups, [np.concatenate(groups)]):
        tiles.clear()
        xs = [Tensor(a.copy(), requires_grad=True) for a in inputs]
        wt, bt = Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
        out = conv2d(xs[0], wt, bt, dilation=r, relu=k > 1, more=tuple(xs[1:]))
        data = out.data.copy()
        backward(weighted_sum(out, u))
        runs.append([data, bt.grad, wt.grad] + [x.grad for x in xs])
        calls.append(list(tiles))
    grouped, (*whole, dx) = runs
    return grouped, whole + np.split(dx, np.cumsum(sizes)[:-1]), calls[0]


@pytest.mark.parametrize(
    "sizes, k, r", [((5, 3), 3, 1), ((5, 3), 3, 4), ((4, 4, 4, 4, 4), 1, 1)]
)
def test_grouped_conv_equals_conv_of_the_concatenated_input_byte_for_byte(monkeypatch, sizes, k, r):
    # a budget of the tap matrix of three output rows plus their product
    # makes the 3x3 forward, which copies the groups, and the backward,
    # which copies their rows beside its one tap matrix, run several row
    # tiles
    monkeypatch.setattr(layers, "_COL_BYTES", (sum(sizes) * k * (3 + 2 * r) + 3 * 3) * 7 * 4)
    grouped, whole, tiles = _grouped_and_concatenated(monkeypatch, sizes, k, r, 95 + r)
    # the forward, then one tap matrix for both gradients; a 1x1 kernel
    # joins its groups for the forward and the weight gradient, one GEMM
    # each, its input gradient is one GEMM, and none of them is tiled
    assert (len(tiles) == 2 and min(tiles) > 1) if k > 1 else tiles == []
    names = ["out", "b.grad", "w.grad"] + [f"group {i} grad" for i in range(len(sizes))]
    assert len(grouped) == len(whole) == len(names)
    for name, a, c in zip(names, grouped, whole):
        assert a.dtype == c.dtype == np.float32, name
        assert a.shape == c.shape and a.tobytes() == c.tobytes(), name


def test_conv_groups_take_disjoint_views_of_one_input_gradient():
    a, b = (Tensor(_rand((c, 4, 5), 96 + c), requires_grad=True) for c in (2, 3))
    w = Tensor(_rand((2, 5, 3, 3), 98))
    u = _rand((2, 4, 5), 99)
    backward(weighted_sum(conv2d(a, w, more=(b,)), u))
    assert a.grad.base is not None and a.grad.base is b.grad.base
    assert not np.shares_memory(a.grad, b.grad)
    whole = Tensor(np.concatenate([a.data, b.data]), requires_grad=True)
    backward(weighted_sum(conv2d(whole, w), u))
    assert a.grad.tobytes() == whole.grad[:2].tobytes()
    assert b.grad.tobytes() == whole.grad[2:].tobytes()


def test_grouped_conv_gradients_match_fd():
    x = Tensor(_rand((2, 6, 5), 100), requires_grad=True)
    g = Tensor(_rand((1, 6, 5), 101), requires_grad=True)
    w = Tensor(_rand((2, 3, 3, 3), 102), requires_grad=True)
    b = Tensor(_rand((2,), 103), requires_grad=True)
    store = {"x": x, "g": g, "w": w, "b": b}
    u = _rand((2, 6, 5), 104)

    def loss_fn():
        return weighted_sum(conv2d(x, w, b, dilation=2, more=(g,)), u).item()

    backward(weighted_sum(conv2d(x, w, b, dilation=2, more=(g,)), u))
    assert max_rel_error_fd(store, loss_fn) <= 1e-6


def test_grouped_conv_rejects_what_concatenation_could_not_join():
    x, w = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(OctCystError, match=r"group \(1, 4, 5\) and input \(2, 4, 4\) spatial dims differ"):
        conv2d(x, w, more=(Tensor(np.zeros((1, 4, 5))),))
    with pytest.raises(OctCystError, match=r"group \(1, 1, 4, 4\) and input \(2, 4, 4\) spatial dims differ"):
        conv2d(x, w, more=(Tensor(np.zeros((1, 1, 4, 4))),))
    # the checks of a single input hold over the groups' channels
    with pytest.raises(OctCystError, match=r"conv2d expects 3-D input and 4-D kernel"):
        conv2d(Tensor(np.zeros((4, 4))), w, more=(Tensor(np.zeros((1, 4, 4))),))
    with pytest.raises(OctCystError, match=r"kernel \(1, 3, 3, 3\) incompatible with input \(2, 4, 4\) \+ \(2, 4, 4\)"):
        conv2d(x, w, more=(Tensor(np.zeros((2, 4, 4))),))
    with pytest.raises(OctCystError, match=r"kernel \(1, 3, 2, 2\) incompatible with input"):
        conv2d(x, Tensor(np.zeros((1, 3, 2, 2))), more=(Tensor(np.zeros((1, 4, 4))),))
    with pytest.raises(OctCystError, match=r"bias shape \(3,\) != \(1,\)"):
        conv2d(x, w, Tensor(np.zeros(3)), more=(Tensor(np.zeros((1, 4, 4))),))
    assert conv2d(x, w, more=(Tensor(np.zeros((1, 4, 4))),)).data.shape == (1, 4, 4)


# --- conv2d with a gain on its first group -------------------------------------


@pytest.mark.parametrize("k, r", [(3, 1), (3, 4)])
def test_gained_conv_equals_conv_of_the_scaled_input_byte_for_byte(monkeypatch, k, r):
    # a budget of three of x's rows makes the 3x3 forward and backward run
    # one-row tiles, and the gain's gradient reduce in the backward's tiles
    rng = np.random.default_rng(110 + k + r)
    C, H, W, F = 5, 11, 7, 3
    monkeypatch.setattr(layers, "_COL_BYTES", 3 * C * W * 4)
    x, grp = (rng.standard_normal((c, H, W)).astype(np.float32) for c in (C, 3))
    a = rng.random((1, H, W)).astype(np.float32)
    w = rng.standard_normal((F, C + 3, k, k)).astype(np.float32)
    b = rng.standard_normal(F).astype(np.float32)
    u = rng.standard_normal((F, H, W)).astype(np.float32)
    tiles = _count_mec_tiles(monkeypatch)
    runs, calls = [], []
    for gain in (Tensor(a.copy(), requires_grad=True), None):
        tiles.clear()
        xt = Tensor(x.copy() if gain is not None else a * x, requires_grad=True)
        gt, wt, bt = (Tensor(v.copy(), requires_grad=True) for v in (grp, w, b))
        out = conv2d(xt, wt, bt, dilation=r, relu=k > 1, more=(gt,), gain=gain)
        data = out.data.copy()
        backward(weighted_sum(out, u))
        runs.append((data, bt.grad, wt.grad, gt.grad, xt.grad, gain))
        calls.append(list(tiles))
    (*gained, dx, gain), (*scaled, dref, _) = runs
    # the gained run's forward, then one tap matrix for both gradients
    fwd, bwd = calls[0]
    assert fwd > 1 and bwd > 1
    for name, p, q in zip(["out", "b.grad", "w.grad", "group grad"], gained, scaled):
        assert p.dtype == q.dtype == np.float32, name
        assert p.shape == q.shape and p.tobytes() == q.tobytes(), name
    assert dx.tobytes() == (dref * a).tobytes()
    assert gain.grad.shape == (1, H, W)
    assert gain.grad.tobytes() == (dref * x).sum(axis=0, keepdims=True).tobytes()


def test_gained_conv_rejects_a_1x1_kernel():
    x = Tensor(np.zeros((2, 4, 4)))
    with pytest.raises(OctCystError, match=r"gain only with a k x k kernel"):
        conv2d(x, Tensor(np.zeros((1, 2, 1, 1))), gain=Tensor(np.ones((1, 4, 4))))


def test_gained_conv_gradients_match_fd():
    x = Tensor(_rand((2, 6, 5), 105), requires_grad=True)
    g = Tensor(_rand((1, 6, 5), 106), requires_grad=True)
    a = Tensor(_rand((1, 6, 5), 107), requires_grad=True)
    w = Tensor(_rand((2, 3, 3, 3), 108), requires_grad=True)
    store = {"x": x, "g": g, "a": a, "w": w}
    u = _rand((2, 6, 5), 109)

    def loss_fn():
        return weighted_sum(conv2d(x, w, dilation=2, more=(g,), gain=a), u).item()

    backward(weighted_sum(conv2d(x, w, dilation=2, more=(g,), gain=a), u))
    assert max_rel_error_fd(store, loss_fn) <= 1e-6


def test_gained_conv_rejects_a_gain_that_is_not_one_map_of_the_input():
    x, w = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 3, 3)))
    for shape in ((2, 4, 4), (1, 4, 5), (4, 4)):
        with pytest.raises(OctCystError, match=r"is not a \(1, H, W\) map of input \(2, 4, 4\)"):
            conv2d(x, w, gain=Tensor(np.zeros(shape)))
    assert conv2d(x, w, gain=Tensor(np.ones((1, 4, 4)))).data.shape == (1, 4, 4)


# --- conv2d backward from one tap matrix ---------------------------------------


@pytest.mark.parametrize("rows", [None, 3], ids=["one tile", "row tiles"])
def test_conv_backward_builds_one_tap_matrix_for_both_gradients(monkeypatch, rows):
    C, F, k, H, W = 3, 4, 3, 12, 10
    if rows is not None:
        # the output gradient's tap matrix of three output rows (F*k rows
        # of 3 + 2 input rows), their product and their rows of x
        monkeypatch.setattr(layers, "_COL_BYTES", (F * k * (rows + 2) + 2 * C * rows) * W * 8)
    x = Tensor(_rand((C, H, W), 120), requires_grad=True)
    w = Tensor(_rand((F, C, k, k), 121), requires_grad=True)
    out = conv2d(x, w)
    tiles = _count_mec_tiles(monkeypatch)
    backward(weighted_sum(out, _rand((F, H, W), 122)))
    assert tiles == ([1] if rows is None else [-(-H // rows)])
    assert x.grad.shape == x.data.shape and w.grad.shape == w.data.shape


@pytest.mark.parametrize("rows", [None, 3], ids=["one tile", "row tiles"])
def test_conv_backward_without_a_weight_gradient_builds_one_tap_matrix(monkeypatch, rows):
    # the output gradient's tap matrix, for the input gradient alone
    C, F, k, H, W, r = 3, 4, 3, 12, 10, 2
    if rows is not None:
        monkeypatch.setattr(layers, "_COL_BYTES", (F * k * (rows + 2 * r) + 2 * C * rows) * W * 8)
    x = Tensor(_rand((C, H, W), 132), requires_grad=True)
    w = Tensor(_rand((F, C, k, k), 133))
    u = _rand((F, H, W), 134)
    out = conv2d(x, w, dilation=r)
    tiles = _count_mec_tiles(monkeypatch)
    backward(weighted_sum(out, u))
    assert tiles == ([1] if rows is None else [-(-H // rows)])
    assert w.grad is None
    assert x.grad.tobytes() == layers._conv(u, layers._flip(w.data), r).tobytes()


def test_conv_backward_without_an_input_gradient_builds_one_tap_matrix(monkeypatch):
    # the output gradient's tap matrix, for the weight gradient alone: no
    # input-gradient GEMM runs
    x = Tensor(_rand((2, 8, 9), 123))
    w = Tensor(_rand((4, 2, 3, 3), 124), requires_grad=True)
    u = _rand((4, 8, 9), 125)
    out = conv2d(x, w, dilation=2)
    tiles = _count_mec_tiles(monkeypatch)
    tap_sums = []
    tap_sum = layers._tap_sum
    monkeypatch.setattr(layers, "_tap_sum", lambda *args: tap_sums.append(1) or tap_sum(*args))
    backward(weighted_sum(out, u))
    assert tiles == [1] and tap_sums == [] and x.grad is None
    _, dw = naive_conv2d_grads(x.data, w.data, u, 2)
    assert np.max(np.abs(w.grad - dw)) < 1e-12


@pytest.mark.parametrize("r", [1, 2, 4, 12])
def test_shared_tap_gradients_match_the_naive_oracle(monkeypatch, r):
    # two output rows per tile: at r = 12 every vertical tap but the centre
    # falls outside the 9 rows, and the outer horizontal taps outside the 7
    # columns
    C, Cg, F, k, H, W = 3, 2, 4, 3, 9, 7
    p = r * (k // 2)
    monkeypatch.setattr(layers, "_COL_BYTES", (F * k * (2 + 2 * p) + 2 * (C + Cg) * 2) * W * 8)
    x = Tensor(_rand((C, H, W), 126), requires_grad=True)
    g = Tensor(_rand((Cg, H, W), 127), requires_grad=True)
    a = Tensor(_rand((1, H, W), 128), requires_grad=True)
    w = Tensor(_rand((F, C + Cg, k, k), 129), requires_grad=True)
    u = _rand((F, H, W), 130)
    out = conv2d(x, w, dilation=r, more=(g,), gain=a)
    tiles = _count_mec_tiles(monkeypatch)
    backward(weighted_sum(out, u))
    assert tiles == [-(-H // 2)]
    dxin, dw = naive_conv2d_grads(np.concatenate([a.data * x.data, g.data]), w.data, u, r)
    assert np.max(np.abs(w.grad - dw)) < 1e-12
    assert np.max(np.abs(x.grad - dxin[:C] * a.data)) < 1e-12
    assert np.max(np.abs(g.grad - dxin[C:])) < 1e-12
    assert np.max(np.abs(a.grad - (dxin[:C] * x.data).sum(axis=0, keepdims=True))) < 1e-12


@pytest.mark.parametrize("r", [1, 2])
def test_conv_weight_gradient_has_the_same_bytes_whether_or_not_the_input_needs_one(r):
    # a 3x3 weight gradient has one route, the output gradient's tap
    # matrix, also for the network's first convolution, whose input needs
    # no gradient
    rng = np.random.default_rng(135 + r)
    x = rng.standard_normal((3, 17, 13)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    u = rng.standard_normal((4, 17, 13)).astype(np.float32)
    grads = []
    for inputs in (True, False):
        xt, wt = Tensor(x.copy(), requires_grad=inputs), Tensor(w.copy(), requires_grad=True)
        backward(weighted_sum(conv2d(xt, wt, dilation=r), u))
        assert (xt.grad is not None) == inputs
        grads.append(wt.grad)
    assert grads[0].dtype == grads[1].dtype == np.float32
    assert grads[0].tobytes() == grads[1].tobytes()


def test_1x1_conv_of_groups_equals_the_ungrouped_one_byte_for_byte(monkeypatch):
    # one GEMM of the joined groups, for the forward and for the weight
    # gradient: a 1x1 kernel never enters _mec_tiles
    rng = np.random.default_rng(131)
    x = rng.standard_normal((6, 13, 11)).astype(np.float32)
    w = rng.standard_normal((5, 6, 1, 1)).astype(np.float32)
    go = rng.standard_normal((5, 13, 11)).astype(np.float32)
    tiles = _count_mec_tiles(monkeypatch)
    direct = layers._conv(x, w, 1)
    grouped = layers._conv(x[:2], w, 1, more=(x[2:],))
    dw = layers._weight_grad_1x1((x,), go)
    dw_grouped = layers._weight_grad_1x1((x[:2], x[2:]), go)
    assert tiles == []
    assert direct.dtype == np.float32 and direct.shape == (5, 13, 11)
    assert direct.tobytes() == grouped.tobytes()
    assert dw.dtype == np.float32 and dw.shape == w.shape and dw.flags.c_contiguous
    assert dw.tobytes() == dw_grouped.tobytes()
    oracle = np.einsum("fhw,chw->fc", go.astype(np.float64), x.astype(np.float64))
    assert np.max(np.abs(dw[:, :, 0, 0] - oracle)) < 1e-4


# --- conv2d with the fused ReLU -----------------------------------------------


def _conv_relu_inputs(seed):
    """float32 input, kernel, bias and upstream gradient of mixed sign;
    output channel 3 is rectified everywhere and its upstream gradient is
    negative, so its masked gradient is all -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 9, 10)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    w[3] = 0.0
    b[3] = -1.0
    g = rng.standard_normal((4, 9, 10)).astype(np.float32)
    g[3] = -np.abs(g[3]) - 0.5
    return x, w, b, g


def _conv_relu_run(fused, x, w, b, g, r):
    """Output, the masked gradient the conv's closure consumes, and the x,
    w, b gradients of sum(relu(conv) * g).  Unfused, the numpy reference:
    np.maximum of conv2d(relu=False), whose backward is seeded with g
    masked where that conv is positive."""
    xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    conv = conv2d(xt, wt, bt, dilation=r, relu=fused)
    data = conv.data.copy() if fused else np.maximum(conv.data, 0)
    seed = g if fused else g * (conv.data > 0)
    consumed = []
    closure = conv._backward

    def probe():
        # the fused closure masks this very array in place
        consumed.append(conv.grad)
        closure()

    conv._backward = probe
    backward(weighted_sum(conv, seed))
    return data, consumed[0], xt.grad, wt.grad, bt.grad


@pytest.mark.parametrize("r", [1, 2])
def test_fused_conv_relu_matches_relu_of_conv_byte_for_byte(r):
    x, w, b, g = _conv_relu_inputs(80 + r)
    fused = _conv_relu_run(True, x, w, b, g, r)
    composed = _conv_relu_run(False, x, w, b, g, r)
    assert np.any(composed[0] == 0) and np.any(composed[0] > 0)
    # zeroing by assignment would turn these into +0.0
    assert np.all(np.signbit(composed[1][3]))
    names = ("out", "masked gradient", "x.grad", "w.grad", "b.grad")
    for name, a, c in zip(names, fused, composed):
        assert a.dtype == c.dtype == np.float32, name
        assert a.tobytes() == c.tobytes(), name


def test_fused_conv_relu_gradient_is_released_so_its_in_place_mask_stays_unseen():
    # the fused backward masks out.grad in place; that is safe only because
    # backward drops every gradient but a leaf's once its closure has run,
    # the loss's own included
    x, w, b, g = _conv_relu_inputs(83)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    h = conv2d(xt, wt, bt, relu=True)
    backward(weighted_sum(h, g))
    assert h.grad is None

    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    loss = conv2d(xt, wt, bt, relu=True)
    assert np.any(loss.data == 0)
    backward(loss, grad=0.5)
    assert loss.grad is None
    mask = (loss.data > 0).astype(np.float32)
    assert np.array_equal(bt.grad, (np.float32(0.5) * mask).sum(axis=(1, 2)))


@pytest.mark.parametrize("op", ["conv2d(x, w, more=(x,))", "attention_gate(x, x)"])
def test_a_tensor_used_twice_by_one_op_gets_both_gradients(op):
    # the first gradient x is handed becomes x.grad and the second adds into
    # it, so x gets, bit for bit, the sum of what two copies of x would get.
    # The gate runs as the decoder runs it, with a conv taking its
    # coefficient map as the gain of the skip: the skip gets the conv's
    # gradient and then the gate's, before the gating input gets its own
    data = _rand((4, 3, 3), 90)
    gate = _gate_params(4, 4, 2, 91)
    w = Tensor(_rand((2, 8, 3, 3), 93))
    run = {
        "conv2d(x, w, more=(x,))": lambda a, b: conv2d(a, w, more=(b,)),
        "attention_gate(x, x)": lambda a, b: conv2d(
            a, Tensor(w.data[:, :4]), gain=attention_gate(a, b, **gate)
        ),
    }[op]
    x, a, b = (Tensor(data.copy(), requires_grad=True) for _ in range(3))
    y = run(x, x)
    u = _rand(y.data.shape, 92)
    backward(weighted_sum(y, u))
    backward(weighted_sum(run(a, b), u))
    assert x.grad.tobytes() == (a.grad + b.grad).tobytes()


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
    with pytest.raises(OctCystError, match="max_pool2 needs even spatial dims, got 3x4"):
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
    x = Tensor(data, requires_grad=True)
    store = {"x": x}

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
    backward(weighted_sum(out, g))
    want_out, want_grad = _pool_oracle(data, g)
    assert out.data.dtype == data.dtype
    assert out.data.tobytes() == want_out.tobytes()
    assert x.grad.tobytes() == want_grad.tobytes()


def test_max_pool_eval_output_equals_the_recording_output_byte_for_byte():
    # ties of -0.0 and 0.0, a NaN and equal maxima.  Without a gradient to
    # route, eval builds no argmax and no comparison buffer (a byte per
    # output element each): it allocates its output and numpy's
    # fixed-size loop buffers only
    rng = np.random.default_rng(64)
    data = rng.integers(-2, 3, (8, 256, 256)).astype(np.float32)
    data[data == 0] = rng.choice(np.float32([0.0, -0.0]), int(np.sum(data == 0)))
    data[1, 5, 6] = np.nan
    recorded = max_pool2(Tensor(data, requires_grad=True))
    tracemalloc.start()
    try:
        out = max_pool2(Tensor(data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._backward is None and recorded._backward is not None
    assert out.data.tobytes() == recorded.data.tobytes()
    assert peak <= out.data.nbytes + out.data.size // 2


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
    # psi = 0 gives alpha = 0.5 exactly, and a 3x3 conv whose centre tap
    # is the identity, taking it as its gain, returns exactly half the input
    x = Tensor(_rand((4, 3, 3), 31))
    g = Tensor(_rand((4, 3, 3), 32))
    alpha = attention_gate(x, g, **_gate_params(4, 4, 2, 33, zero_psi=True))
    assert np.array_equal(alpha.data, np.full((1, 3, 3), 0.5))
    w = np.zeros((4, 4, 3, 3))
    w[:, :, 1, 1] = np.eye(4)
    out = conv2d(x, Tensor(w), gain=alpha)
    assert np.array_equal(out.data, 0.5 * x.data)


def test_gate_alpha_strictly_in_unit_interval():
    for seed in range(10):
        x = Tensor(_rand((4, 3, 3), 100 + seed, spread=3.0))
        g = Tensor(_rand((4, 3, 3), 200 + seed, spread=3.0))
        p = _gate_params(4, 4, 2, 300 + seed)
        alpha = attention_gate(x, g, **p).data
        assert alpha.shape == (1, 3, 3)
        assert alpha.min() > 0.0 and alpha.max() < 1.0


def test_gate_records_one_node_over_its_operands():
    x, g = (Tensor(_rand((4, 3, 3), seed), requires_grad=True) for seed in (34, 35))
    p = _gate_params(4, 4, 2, 36)
    out = attention_gate(x, g, **p)
    # the op's one output is the coefficient map, never a skip-sized array
    assert out.data.shape == (1, 3, 3)
    assert out._parents == (x, g, p["w_x"], p["w_g"], p["b_xg"], p["psi"], p["b_psi"])


def test_gate_spatial_mismatch_rejected():
    with pytest.raises(OctCystError, match="spatial dims differ"):
        attention_gate(
            Tensor(np.zeros((4, 3, 3))),
            Tensor(np.zeros((4, 2, 3))),
            **_gate_params(4, 4, 2, 1),
        )


def test_gate_gradients_match_fd():
    # the decoder's pair: the skip x reaches the loss as the conv's first
    # group and through the gate's coefficient map, the conv's gain
    x = Tensor(_rand((4, 3, 3), 41), requires_grad=True)
    g = Tensor(_rand((4, 3, 3), 42), requires_grad=True)
    p = dict(
        w_x=Tensor(_rand((2, 4, 1, 1), 43), requires_grad=True),
        w_g=Tensor(_rand((2, 4, 1, 1), 44), requires_grad=True),
        b_xg=Tensor(_rand((2,), 45), requires_grad=True),
        psi=Tensor(_rand((1, 2, 1, 1), 46), requires_grad=True),
        b_psi=Tensor(_rand((1,), 47), requires_grad=True),
    )
    w = Tensor(_rand((2, 8, 3, 3), 48), requires_grad=True)
    store = {"x": x, "g": g, **p, "w": w}

    def loss_fn():
        return mean(conv2d(x, w, more=(g,), gain=attention_gate(x, g, **p))).item()

    backward(mean(conv2d(x, w, more=(g,), gain=attention_gate(x, g, **p))))
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


# --- dropout, fused into the rectified convolution ---------------------------


def _identity(x):
    """A 1x1 kernel that passes a positive x through the GEMM and the ReLU
    unchanged, bit for bit."""
    return Tensor(np.eye(len(x.data), dtype=x.data.dtype)[:, :, None, None])


def _dropped(x, p, seed):
    """conv2d's fused dropout on x itself."""
    return conv2d(x, _identity(x), relu=True, drop=(p, seed))


def test_dropout_zero_rate_is_identity(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a zero rate drew a mask")

    x = Tensor(_rand((2, 4, 4), 61) + 1.5)
    monkeypatch.setattr(layers, "uniform_at_least", no_draw)
    out = _dropped(x, 0.0, 1)
    assert out.data.tobytes() == conv2d(x, _identity(x), relu=True).data.tobytes() == x.data.tobytes()


def test_dropout_inverted_scaling_values():
    x = Tensor(np.ones((1, 8, 8)))
    out = _dropped(x, 0.25, 7)
    for v in np.unique(out.data):
        assert v == 0.0 or v == pytest.approx(1.0 / 0.75)


def test_dropout_seeded_expectation_matches_eval():
    x = Tensor(np.random.default_rng(3).random((3, 4, 4)) + 0.5)
    acc = np.zeros_like(x.data)
    n = 1000
    for seed in range(n):
        acc += _dropped(x, 0.2, seed).data
    rel = np.abs(acc / n - x.data) / x.data
    assert rel.max() <= 0.05


def test_dropout_mask_is_the_uniform_draw_definition_bit_for_bit():
    for seed in (0, 5, 2**64 - 1):
        for shape in ((1, 1, 1), (1, 3, 7), (4, 16, 24)):
            x = Tensor(np.random.default_rng(seed % 97).random(shape, dtype=np.float32) + 0.5)
            u = uniform_array(seed, x.data.size).reshape(shape)
            for p in (0.1, 0.2, 0.5, float(u.flat[0])):
                mask = ((u >= p) / (1.0 - p)).astype(np.float32)
                assert np.array_equal(_dropped(x, p, seed).data, x.data * mask)


def test_dropout_keeps_nothing_beyond_the_output_for_its_backward():
    # while the graph lives, neither the draw nor the undropped activation
    # stays: a convolution followed by a separate dropout kept both, 5 more
    # bytes per element.  Backward equals that two-op composition bit for
    # bit, rebuilt here as a rectified conv whose loss weights carry the mask
    rng = np.random.default_rng(62)
    x = Tensor(rng.random((4, 128, 128), dtype=np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4, 3, 3)).astype(np.float32))
    u = rng.standard_normal(x.data.shape).astype(np.float32)
    tracemalloc.start()
    try:
        out = conv2d(x, w, relu=True, drop=(0.25, 9))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._backward is not None and np.any(out.data == 0)
    assert kept - out.data.nbytes <= 4096
    backward(weighted_sum(out, u))
    mask = ((uniform_array(9, x.data.size) >= 0.25) / 0.75).astype(np.float32)
    x2 = Tensor(x.data, requires_grad=True)
    backward(weighted_sum(conv2d(x2, w, relu=True), u * mask.reshape(x.data.shape)))
    assert x.grad.tobytes() == x2.grad.tobytes()


def test_dropout_deterministic_per_seed():
    x = Tensor(np.ones((1, 5, 5)))
    a = _dropped(x, 0.3, 123).data
    b = _dropped(x, 0.3, 123).data
    assert np.array_equal(a, b)


def test_dropout_needs_a_rectified_output():
    # backward reads the kept pixels from out > 0: without the ReLU a kept
    # pixel <= 0 would lose its gradient
    x = Tensor(np.ones((1, 4, 4)))
    with pytest.raises(OctCystError, match="only to a rectified output"):
        conv2d(x, Tensor(np.ones((1, 1, 1, 1))), drop=(0.25, 1))


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


@pytest.mark.parametrize("cfg", [UNetConfig(seed=1), _tiny_cfg()], ids=["production", "tiny"])
def test_build_unet_holds_exactly_the_names_and_shapes_of_param_layout(cfg):
    _, store = build_unet(cfg)
    layout = param_layout(cfg)
    assert sorted((n, t.data.shape) for n, t in store.items()) == sorted(
        (n, shape) for n, shape, _ in layout
    )
    assert len(layout) == len(store.items())


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
    prob, _ = predict(Checkpoint(cfg, store.values()), Sample(x, (16, 24)))
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
    with pytest.raises(OctCystError, match=r"expected \(2, H, W\) input, got \(3, 8, 8\)"):
        net.forward(np.zeros((3, 8, 8), dtype=np.float32))
    with pytest.raises(OctCystError, match="spatial dims 6x8 not divisible by 4"):
        net.forward(np.zeros((2, 6, 8), dtype=np.float32))


# --- backward ------------------------------------------------------------------


def test_backward_requires_recorded_graph():
    t = Tensor(np.zeros((2, 2)))
    with pytest.raises(OctCystError, match="tensor has no recorded graph"):
        backward(t)
    # a checkpoint's network is for inference: its forward records nothing
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    out = Checkpoint(cfg, store.values()).network.forward(np.zeros((2, 8, 8), dtype=np.float32))
    with pytest.raises(OctCystError, match="tensor has no recorded graph"):
        backward(out)


def test_backward_frees_the_graph_without_the_cycle_collector():
    gc.disable()
    try:
        x = Tensor(np.arange(-1.0, 3.0).reshape(1, 1, 4), requires_grad=True)
        h = conv2d(x, Tensor(np.full((1, 1, 1, 1), 2.0)), relu=True)
        h_data = weakref.ref(h.data)
        loss = mean(h)
        del h
        backward(loss)
        assert h_data() is None
    finally:
        gc.enable()
    assert np.array_equal(x.grad, [[[0.0, 0.0, 0.5, 0.5]]])


def _chain_backward_peak(n_ops):
    """tracemalloc peak while `backward` runs through a chain of n_ops
    rectified 1x1 convolutions, every other one with dropout, over a 1 MiB
    float32 tensor; the forward activations were allocated before tracing
    starts."""
    x = Tensor(np.random.default_rng(3).random((1, 512, 512), dtype=np.float32), requires_grad=True)
    w = Tensor(np.full((1, 1, 1, 1), 0.75, dtype=np.float32))
    h = x
    for i in range(n_ops):
        h = conv2d(h, w, relu=True, drop=None if i % 2 else (0.25, i))
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
        x = Tensor(np.arange(-2.0, 2.0).reshape(1, 1, 4), requires_grad=True)
        w, b = Tensor(np.full((1, 1, 1, 1), 2.0)), Tensor(np.full(1, 0.5))
        first = conv2d(x, w)
        h = first
        later = []
        for _ in range(5):
            h = conv2d(h, w, b, relu=True)
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


def test_backward_keeps_gradients_only_on_leaves():
    x = Tensor(np.array([[[-1.0, -0.25, 0.5, 2.0]]], dtype=np.float32), requires_grad=True)
    w = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32), requires_grad=True)
    b = Tensor(np.full(1, 0.5, dtype=np.float32), requires_grad=True)
    a = conv2d(x, w, b, relu=True)
    c = conv2d(a, Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32)))
    loss = mean(c)
    backward(loss)
    assert a.grad is None and c.grad is None and loss.grad is None
    # every product and sum of the closures is exact here
    g = np.float32(0.75) * (a.data > 0)
    assert np.array_equal(b.grad, [g.sum()])
    assert np.array_equal(x.grad, g * w.data[0, 0, 0, 0])
    assert np.array_equal(w.grad, [[[[np.sum(g * x.data)]]]])


def test_second_backward_on_consumed_graph_raises():
    x = Tensor(np.arange(4.0), requires_grad=True)
    loss = mean(x)
    backward(loss)
    with pytest.raises(OctCystError, match="tensor has no recorded graph"):
        backward(loss)
    assert np.array_equal(x.grad, np.full(4, 0.25))


def test_backward_linearity_in_loss_scale():
    net, store = build_unet(_tiny_cfg(), dtype=np.float64)
    x = np.random.default_rng(5).random((2, 8, 8))
    target = (np.random.default_rng(6).random((1, 8, 8)) > 0.7).astype(float)

    backward(bce_loss(net.forward(x), target))
    g1 = {n: t.grad for n, t in store.items()}
    for _, t in store.items():
        t.grad = None
    backward(bce_loss(net.forward(x), target), grad=3.0)
    for n, t in store.items():
        denom = np.maximum(np.abs(t.grad), 1e-12)
        assert np.max(np.abs(t.grad - 3.0 * g1[n]) / denom) <= 1e-6


def _two_branch_sigmoid(z):
    # 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_data_matches_the_two_branch_form_at_the_extremes(dtype):
    info = np.finfo(dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, info.max, -info.max,
             info.tiny, -info.tiny, info.tiny / 8, -info.tiny / 8, 1e-8, -1e-8,
             88.7, -88.7, 103.9, -103.9, 709.8, -709.8, 745.2, -745.2]
    spread = np.random.default_rng(4).standard_normal(20_000) * 40.0
    z = np.concatenate([np.array(edges), spread]).astype(dtype)
    got = _sigmoid_data(z)
    assert got.dtype == dtype
    assert got.tobytes() == _two_branch_sigmoid(z).tobytes()


def test_backward_head_gradient_closed_form():
    # zero weights: p == 0.5 everywhere, head input is zero, so only the
    # head bias receives gradient: mean over pixels of (p - t) = 0.5
    net, store = build_unet(_tiny_cfg(), dtype=np.float64)
    for _, t in store.items():
        t.data[...] = 0.0
    x = np.random.default_rng(7).random((2, 8, 8))
    target = np.zeros((1, 8, 8))
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

    backward(bce_loss(net.forward(x), target))
    assert max_rel_error_fd(store, loss_fn) <= 1e-4


def test_only_the_networks_3x3_convolutions_enter_mec_tiles(monkeypatch):
    # the gates' projections, the ASPP fuse over its branch groups and the
    # head are 1x1: one GEMM per product, never lowered
    cfg = UNetConfig(
        input_channels=2, base_channels=2, depth=1, bottleneck_channels=4,
        aspp_rates=(1, 2), dropout_per_level=(0.1, 0.1), seed=7,
    )
    net, _ = build_unet(cfg)
    x = np.random.default_rng(10).random((2, 8, 8)).astype(np.float32)
    target = (np.random.default_rng(11).random((1, 8, 8)) > 0.8).astype(np.float32)
    kernels = []
    mec_tiles = layers._mec_tiles
    monkeypatch.setattr(layers, "_mec_tiles", lambda xs, k, *rest: kernels.append(k) or mec_tiles(xs, k, *rest))
    backward(bce_loss(net.forward(x), target))
    assert kernels and set(kernels) == {3}


def test_first_gradient_is_taken_in_the_tensor_dtype_and_cast_otherwise():
    from octcyst.tensornet.tensor import _accum

    # an array in the tensor's dtype becomes its gradient, and later ones add in
    owned = np.array([1.0, -0.5, 2.0], dtype=np.float32)
    t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    _accum(t, owned)
    assert t.grad is owned
    _accum(t, np.ones(3, dtype=np.float32))
    assert t.grad is owned
    assert np.array_equal(owned, [2.0, 0.5, 3.0])

    # one in another dtype is cast, so the caller's array is left alone
    g = np.array([1.0, -0.5, 2.0])
    t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    _accum(t, g)
    assert t.grad is not g and t.grad.dtype == np.float32
    _accum(t, np.ones(3))
    assert np.array_equal(t.grad, [2.0, 0.5, 3.0])
    assert np.array_equal(g, [1.0, -0.5, 2.0])


# --- malloc settings ----------------------------------------------------------


class _MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )
    ]


def test_frame_size_arrays_are_not_mmapped():
    # importing octcyst.tensornet raised glibc's mmap threshold above a
    # 16-channel 640x1024 float32 activation; hblkhd counts mmapped bytes
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (OSError, TypeError, AttributeError):
        pytest.skip("libc has no mallinfo2")
    mallinfo2.argtypes = ()
    mallinfo2.restype = _MallInfo2
    before = mallinfo2().hblkhd
    a = np.empty((16, 640, 1024), dtype=np.float32)
    assert mallinfo2().hblkhd - before < a.nbytes


@pytest.mark.parametrize("libc", ["none", "without mallopt", "musl"])
def test_heap_setting_is_a_no_op_without_glibc(monkeypatch, libc):
    calls = []

    def mallopt(param, value):  # musl's accepts nothing
        calls.append((param, value))
        return 0

    def cdll(name):
        if libc == "none":
            raise OSError("no C library")
        return types.SimpleNamespace(**({"mallopt": mallopt} if libc == "musl" else {}))

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    keep_large_blocks_on_heap()
    # a refused trim threshold leaves the mmap threshold alone: raising it
    # by itself made frame-size arrays fault more, not less
    assert calls == ([(-1, 2**31 - 1)] if libc == "musl" else [])
