"""Differentiable layers: dilated convolution, transposed convolution,
max pooling, dropout, the attention gate, and the atrous pyramid."""

from __future__ import annotations

import numpy as np

from ..errors import OddDimension, ShapeMismatch
from ..rng import uniform_at_least
from .tensor import Tensor, _accum, _attach, concat, mul, relu, sigmoid


# Column buffer budget of one row tile; bounds the memory a convolution
# adds beyond its input and output.
_COL_BYTES = 16 << 20


def _im2col_tiles(x: np.ndarray, k: int, r: int):
    """Yield (i0, i1, cols) over blocks of output rows: cols is the
    (C*k*k, (i1-i0)*W) matrix whose row (c, a, b) holds the zero-padded
    input x[c, i + r*(a - k//2), j + r*(b - k//2)] for i0 <= i < i1."""
    C, H, W = x.shape
    if k == 1:
        yield 0, H, x.reshape(C, H * W)
        return
    pad = r * (k // 2)
    h = max(1, min(H, _COL_BYTES // (C * k * k * W * x.itemsize)))
    buf = np.empty(C * k * k * h * W, dtype=x.dtype)
    rows = np.zeros((C, h + 2 * pad, W + 2 * pad), dtype=x.dtype)
    for i0 in range(0, H, h):
        i1 = min(i0 + h, H)
        n = i1 - i0
        # input rows i0 - pad .. i1 + pad, zero outside x; the zeros above
        # row 0 and beside the columns are never overwritten, as tiles
        # move down, but rows below H may hold the previous tile's input
        lo, hi = max(i0 - pad, 0), min(i1 + pad, H)
        top = lo - (i0 - pad)
        rows[:, top : top + hi - lo, pad : pad + W] = x[:, lo:hi]
        rows[:, top + hi - lo :] = 0
        cols = buf[: C * k * k * n * W].reshape(C, k, k, n, W)
        for a in range(k):
            for b in range(k):
                cols[:, a, b] = rows[:, a * r : a * r + n, b * r : b * r + W]
        yield i0, i1, cols.reshape(C * k * k, n * W)


def _conv(x: np.ndarray, w: np.ndarray, r: int) -> np.ndarray:
    """Bias-free same-padded convolution of arrays, one GEMM per row tile."""
    F, _, k, _ = w.shape
    _, H, W = x.shape
    w2 = w.reshape(F, -1)
    y = np.empty((F, H * W), dtype=x.dtype)
    for i0, i1, cols in _im2col_tiles(x, k, r):
        np.matmul(w2, cols, out=y[:, i0 * W : i1 * W])
    return y.reshape(F, H, W)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, dilation: int = 1) -> Tensor:
    """Same-padded 2-D cross-correlation with dilation.

    x: (C, H, W); w: (F, C, k, k) with odd k; b: (F,) or None.  Output
    location i sums x[i + dilation*t] * w[t] over taps t centered on i,
    with zero padding, so spatial dims are preserved for any dilation.
    Forward and weight gradient are one GEMM per row tile of im2col
    columns; the input gradient is the same convolution of the output
    gradient with the kernel flipped and its channel axes swapped.
    """
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 3-D input and 4-D kernel, got {x.data.shape}, {w.data.shape}")
    C, H, W = x.data.shape
    F, Cw, k, k2 = w.data.shape
    if Cw != C or k != k2 or k % 2 == 0:
        raise ShapeMismatch(f"kernel {w.data.shape} incompatible with input {x.data.shape}")
    if b is not None and b.data.shape != (F,):
        raise ShapeMismatch(f"bias shape {b.data.shape} != ({F},)")
    r = dilation
    y = _conv(x.data, w.data, r)
    if b is not None:
        y += b.data[:, None, None]
    out = Tensor(y)

    def _bw():
        go = out.grad
        if b is not None and b.requires_grad:
            _accum(b, go.sum(axis=(1, 2)))
        if x.requires_grad:
            _accum(x, _conv(go, w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], r))
        if w.requires_grad:
            go2 = go.reshape(F, H * W)
            dw = np.zeros((F, C * k * k), dtype=w.data.dtype)
            for i0, i1, cols in _im2col_tiles(x.data, k, r):
                dw += go2[:, i0 * W : i1 * W] @ cols.T
            _accum(w, dw.reshape(w.data.shape))

    parents = (x, w) if b is None else (x, w, b)
    return _attach(out, parents, _bw)


def transposed_conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Stride-2 transposed convolution with a 2x2 kernel.

    x: (C, H, W); w: (C, F, 2, 2); output (F, 2H, 2W).  Defined as the
    adjoint of a stride-2 2x2 convolution, which doubles spatial dims
    exactly."""
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeMismatch("transposed_conv2d expects 3-D input and 4-D kernel")
    C, H, W = x.data.shape
    Cw, F, k1, k2 = w.data.shape
    if Cw != C or (k1, k2) != (2, 2):
        raise ShapeMismatch(f"kernel {w.data.shape} incompatible with input {x.data.shape}")
    # rows (f, di, dj) of one GEMM hold output pixels (2i + di, 2j + dj)
    w2 = w.data.reshape(C, 4 * F)
    z = (w2.T @ x.data.reshape(C, H * W)).astype(x.data.dtype, copy=False)
    y = z.reshape(F, 2, 2, H, W).transpose(0, 3, 1, 4, 2).reshape(F, 2 * H, 2 * W)
    out = Tensor(y)

    def _bw():
        g2 = out.grad.reshape(F, H, 2, W, 2).transpose(0, 2, 4, 1, 3).reshape(4 * F, H * W)
        if w.requires_grad:
            _accum(w, (x.data.reshape(C, H * W) @ g2.T).reshape(w.data.shape))
        if x.requires_grad:
            _accum(x, (w2 @ g2).reshape(C, H, W))

    return _attach(out, (x, w), _bw)


# The four positions of a 2x2 window, in row-major order.
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling; backward routes to the first (row-major) argmax.

    Works on the four strided quadrant views x[:, di::2, dj::2] without
    copying them.  A NaN in a window pools to NaN."""
    C, H, W = x.data.shape
    if H % 2 or W % 2:
        raise OddDimension(f"max_pool2 needs even spatial dims, got {H}x{W}")
    quads = [x.data[:, di::2, dj::2] for di, dj in _QUADRANTS]
    y = quads[0].copy()
    idx = np.zeros(y.shape, dtype=np.uint8)
    wins = np.empty(y.shape, dtype=bool)
    for k in (1, 2, 3):
        # only a strictly greater value takes the window, so the first
        # maximum wins; k grows, so the winner is the largest k that won
        np.greater(quads[k], y, out=wins)
        np.maximum(idx, wins * np.uint8(k), out=idx)
        # numpy's maximum returns its second operand on a tie (-0.0 vs 0.0)
        # and propagates NaN
        np.maximum(quads[k], y, out=y)
    out = Tensor(y)

    def _bw():
        gx = np.zeros_like(x.data)
        for k, (di, dj) in enumerate(_QUADRANTS):
            np.copyto(gx[:, di::2, dj::2], out.grad, where=idx == k)
        _accum(x, gx)

    return _attach(out, (x,), _bw)


def dropout(x: Tensor, p: float, seed: int) -> Tensor:
    """Inverted dropout: kept activations are scaled by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = uniform_at_least(seed, x.data.size, p).reshape(x.data.shape)
    mask = keep * x.data.dtype.type(1.0 / (1.0 - p))
    out = Tensor(x.data * mask)

    def _bw():
        _accum(x, out.grad * mask)

    return _attach(out, (x,), _bw)


def attention_gate(
    x_l: Tensor, g: Tensor, w_x: Tensor, w_g: Tensor, b_xg: Tensor, psi: Tensor, b_psi: Tensor
) -> Tensor:
    """Scale skip features by a learned coefficient in (0,1).

    w_x (F_int, C_skip, 1, 1) and w_g (F_int, C_gate, 1, 1) project the
    skip and gating maps to an inner width; psi (1, F_int, 1, 1) projects
    that to the coefficient logit.  alpha = sigmoid(psi(relu(Wx*x_l + Wg*g
    + b_xg)) + b_psi), broadcast over the channels of x_l; returns
    alpha * x_l."""
    if x_l.data.shape[1:] != g.data.shape[1:]:
        raise ShapeMismatch(
            f"skip {x_l.data.shape} and gating {g.data.shape} spatial dims differ"
        )
    inner = relu(conv2d(x_l, w_x) + conv2d(g, w_g, b_xg))
    alpha = sigmoid(conv2d(inner, psi, b_psi))
    return mul(x_l, alpha)


def aspp(
    x: Tensor, branches: list[tuple[Tensor, Tensor, int]], fuse_w: Tensor, fuse_b: Tensor
) -> Tensor:
    """Parallel 3x3 atrous branches, concatenated and fused by a 1x1 conv.

    branches: one (w (C, C, 3, 3), b (C,), dilation rate) triple per
    branch; fuse_w: (C, len(branches)*C, 1, 1)."""
    outs = [conv2d(x, w, b, dilation=r) for w, b, r in branches]
    return conv2d(concat(outs, axis=0), fuse_w, fuse_b)
