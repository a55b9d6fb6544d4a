"""Differentiable layers: dilated convolution with a fused bias, ReLU and
dropout, transposed convolution, max pooling, the attention gate, ASPP."""

from __future__ import annotations

import numpy as np

from ..errors import OctCystError
from ..rng import uniform_at_least
from .tensor import Tensor, _accum, _attach, _sigmoid_data


# Scratch budget of one row tile: its MEC tap matrix plus the product
# buffer its output rows accumulate through (and, in a backward that
# reads both gradients from one tap matrix, the tile's rows of x).
# Bounds the memory a convolution adds beyond its input and output.
_COL_BYTES = 16 << 20


def _mec_tiles(xs: tuple[np.ndarray, ...], k: int, r: int, f: int, gain: np.ndarray | None = None):
    """Yield (i0, i1, taps) over blocks of output rows i0 <= i < i1.

    MEC lowering (Cho & Brand 2017) of x, the channels of the groups xs in
    order: taps is the (C*k, (n+2p)*W) matrix, n = i1 - i0 and p = r*(k//2),
    whose row (c, b) holds input channel c, copied from its group, shifted
    by horizontal tap b: column t*W + j is the zero-padded
    x[c, i0 - p + t, j + r*(b - k//2)].  Vertical tap a of the tile's
    output rows is then the contiguous column range a*r*W .. a*r*W + n*W.
    Tiles are sized so the matrix and f rows of scratch over the tile's
    output pixels fit in _COL_BYTES.

    gain: a (1, H, W) map that multiplies the first group per pixel as the
    tile's rows are copied, so the scaled group is never kept: once,
    aligned, into the centre tap, which the other taps then copy shifted."""
    (_, H, W), C = xs[0].shape, sum(map(len, xs))
    p = r * (k // 2)
    h = max(1, min(H, (_COL_BYTES // (W * xs[0].itemsize) - 2 * p * C * k) // (C * k + f)))
    # the zeros beside each tap's valid columns are never overwritten;
    # rows outside the input are zeroed per later tile, since a row's place
    # in the buffer maps to a different input row in every tile
    buf = np.zeros((C, k, h + 2 * p, W), dtype=xs[0].dtype)
    shifts = []  # (tap, its columns, the input columns they hold)
    for b in range(k):
        d = r * (b - k // 2)
        if abs(d) < W:
            shifts.append((b, slice(max(-d, 0), W - max(d, 0)), slice(max(d, 0), W + min(d, 0))))
    for i0 in range(0, H, h):
        i1 = min(i0 + h, H)
        n = i1 - i0
        lo, hi = max(i0 - p, 0), min(i1 + p, H)
        top, bot = lo - (i0 - p), hi - (i0 - p)
        if i0:
            buf[:, :, :top] = 0
            buf[:, :, bot : n + 2 * p] = 0
        c1 = 0
        for i, g in enumerate(xs):  # each group's rows at its channel offset
            c0, c1 = c1, c1 + len(g)
            src, centre = g[:, lo:hi], None
            if i == 0 and gain is not None:
                # multiplied once, aligned, into the centre tap (d = 0); the
                # other taps copy those products shifted
                centre = k // 2
                src = buf[c0:c1, centre, top:bot]
                np.multiply(g[:, lo:hi], gain[:, lo:hi], out=src)
            for b, dst, cols in shifts:
                if b != centre:
                    buf[c0:c1, b, top:bot, dst] = src[..., cols]
        yield i0, i1, buf.reshape(C * k, (h + 2 * p) * W)[:, : (n + 2 * p) * W]


def _conv(
    x: np.ndarray, w: np.ndarray, r: int, more: tuple | list = (), gain: np.ndarray | None = None
) -> np.ndarray:
    """Bias-free same-padded convolution of arrays x (times gain, if given),
    *more: per row tile, the sum over vertical taps a of w[:, :, a, :]
    times tap window a.  A 1x1 kernel is one GEMM of the joined groups."""
    F, C, k, _ = w.shape
    _, H, W = x.shape
    if k == 1:
        joined = np.concatenate((x, *more)) if len(more) else x
        return (w.reshape(F, C) @ joined.reshape(C, H * W)).reshape(F, H, W)
    y = np.empty((F, H * W), dtype=x.dtype)
    wk = w.transpose(2, 0, 1, 3).reshape(k, F, C * k)  # tap a's kernel is wk[a]
    prod = None
    for i0, i1, taps in _mec_tiles((x, *more), k, r, F, gain):
        if prod is None:  # the first tile is the tallest
            prod = np.empty((F, (i1 - i0) * W), dtype=x.dtype)
        _tap_sum(wk, taps, r * W, y[:, i0 * W : i1 * W], prod)
    return y.reshape(F, H, W)


def _tap_sum(wk: np.ndarray, taps: np.ndarray, step: int, out: np.ndarray, prod) -> None:
    """out = the sum over vertical taps a of wk[a] @ tap window a, the n
    columns of taps from a*step, added through the product buffer prod."""
    n = out.shape[1]
    np.matmul(wk[0], taps[:, :n], out=out)
    for a in range(1, len(wk)):
        p = prod[:, :n]
        np.matmul(wk[a], taps[:, a * step : a * step + n], out=p)
        out += p


def _flip(w: np.ndarray) -> np.ndarray:
    """The kernel whose convolution is the input gradient of one with w:
    channel axes swapped, taps reversed."""
    return w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def _weight_grad_1x1(xs: tuple | list, go: np.ndarray) -> np.ndarray:
    """Weight gradient of a 1x1 _conv over the groups xs for output
    gradient go: one GEMM of the joined groups against go, taken as
    joined @ go.T and transposed.  On the frame's long, flat operands
    OpenBLAS ran that about twice as fast as go @ joined.T."""
    F, H, W = go.shape
    joined = np.concatenate(xs) if len(xs) > 1 else xs[0]
    dw = (joined.reshape(-1, H * W) @ go.reshape(F, H * W).T).T
    return np.ascontiguousarray(dw).reshape(F, -1, 1, 1)


def _conv_grads(
    go: np.ndarray, w: np.ndarray, r: int, xs: tuple, gain: np.ndarray | None, inputs: bool
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Input, weight and gain gradients of _conv(xs[0], w, r, xs[1:], gain)
    for output gradient go and k > 1, from one MEC tap matrix, of go.

    Per row tile and vertical tap a, tap window a feeds two GEMMs.  The
    flipped kernel's tap a times it adds to the input gradient, exactly
    as _conv(go, _flip(w), r) does.  It times x_tile.T, where x_tile is
    one (C, n) scratch holding the tile's rows of every group in order,
    the first times the gain, adds to acc[a] of a (k, F*k, C)
    accumulator.  Tap (a, b) of go pairs with x at the opposite offset,
    so acc reversed in both tap axes, summed over the rows of x, is the
    weight gradient.  Tiles are sized so the tap matrix, the product
    buffer and x_tile fit in _COL_BYTES.  With a gain, xs[0]'s rows of
    each tile's input gradient, times xs[0] in the then free product
    buffer and summed over channels in order, give the gain's gradient
    (else None), and are then scaled by the gain in place.  inputs is
    False when no group or gain needs a gradient (the network's first
    convolution): then only the weight GEMMs run, and gx and ga are None."""
    F, C, k, _ = w.shape
    _, H, W = go.shape
    wk = _flip(w).transpose(2, 0, 1, 3).reshape(k, C, F * k)
    gx = np.empty((C, H, W), dtype=go.dtype) if inputs else None
    acc = np.empty((k, F * k, C), dtype=go.dtype)
    ga = np.empty_like(gain) if inputs and gain is not None else None
    scratch = None
    for i0, i1, taps in _mec_tiles((go,), k, r, 2 * C):
        n = (i1 - i0) * W
        if scratch is None:  # the first tile is the tallest
            scratch = np.empty((2, C, n), dtype=go.dtype)
        prod, xt = scratch[0], scratch[1, :, :n]
        if inputs:
            _tap_sum(wk, taps, r * W, gx[:, i0:i1].reshape(C, n), prod)
        rows, c1 = xt.reshape(C, i1 - i0, W), 0
        for i, g in enumerate(xs):
            c0, c1 = c1, c1 + len(g)
            if i == 0 and ga is not None:
                gx0 = gx[:c1, i0:i1]
                p0 = prod[:c1, :n].reshape(gx0.shape)
                np.multiply(gx0, g[:, i0:i1], out=p0)
                np.sum(p0, axis=0, out=ga[0, i0:i1])
                gx0 *= gain[:, i0:i1]
            if i == 0 and gain is not None:
                np.multiply(g[:, i0:i1], gain[:, i0:i1], out=rows[c0:c1])
            else:
                rows[c0:c1] = g[:, i0:i1]
        for a in range(k):
            win = taps[:, a * r * W : a * r * W + n]
            if i0:
                acc[a] += win @ xt.T
            else:
                np.matmul(win, xt.T, out=acc[a])
    # acc[a', (f, b'), c] -> dw[f, c, k-1-a', k-1-b']
    dw = acc.reshape(k, F, k, C)[::-1, :, ::-1].transpose(1, 3, 0, 2)
    return gx, np.ascontiguousarray(dw), ga


def conv2d(
    x: Tensor, w: Tensor, b: Tensor | None = None, dilation: int = 1, relu: bool = False,
    *, more: tuple[Tensor, ...] = (), drop: tuple[float, int] | None = None, gain: Tensor | None = None,
) -> Tensor:
    """Same-padded 2-D cross-correlation with dilation.

    x: (C, H, W); w: (F, C, k, k) with odd k; b: (F,) or None.  Output
    location i sums x[i + dilation*t] * w[t] over taps t centered on i,
    with zero padding, so spatial dims are preserved for any dilation.
    Forward of a k x k kernel (k > 1) is k GEMMs per row tile of the MEC
    tap matrix (see _mec_tiles), one per vertical tap, summed through one
    reused product buffer.  Its backward builds one tap matrix, of the
    output gradient (see _conv_grads): each of its windows gives the input
    gradient, as the same convolution with the kernel flipped and its
    channel axes swapped, unless no input or gain needs one, and, times
    the tile's rows of x (times the gain), the weight gradient.  A 1x1
    kernel is never lowered: its forward, its input gradient and its
    weight gradient are one GEMM each.

    more: channel groups (Ci, H, W) after x's, counted in C; the result is
    their concatenation's, bit for bit, with no joined copy ever kept.

    gain: a (1, H, W) map that multiplies x per pixel; only a k x k kernel
    (k > 1) takes one.  The result is the convolution of gain * x, bit for
    bit, but that product is never kept: x's rows are multiplied as they
    are copied, into the tap matrix in the forward and into the weight
    gradient's x tile in backward.  Backward hands x, tile by tile, its
    slice of the input gradient times the gain, and the gain that slice
    summed over channels against x.

    relu=True returns max(conv + b, 0), bit for bit np.maximum of the
    unrectified output: the bias and the ReLU are applied in place on the
    GEMM output, so only the rectified activation is kept for backward.

    drop=(p, seed) needs relu=True and then applies inverted dropout in
    place: pixels where uniform_array(seed, size) >= p are kept and scaled
    by 1/(1-p), the rest zeroed.  out > 0 marks exactly the pixels that both
    the ReLU and the draw passed, so backward keeps neither the draw nor
    the undropped activation.  p == 0 draws nothing.
    """
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise OctCystError(f"conv2d expects 3-D input and 4-D kernel, got {x.data.shape}, {w.data.shape}")
    xs = (x, *more)
    for t in more:  # a group of another rank differs here too
        if t.data.shape[1:] != x.data.shape[1:]:
            raise OctCystError(f"group {t.data.shape} and input {x.data.shape} spatial dims differ")
    gains = () if gain is None else (gain,)
    a = None if gain is None else gain.data
    if gain is not None and a.shape != (1, *x.data.shape[1:]):
        raise OctCystError(f"gain {a.shape} is not a (1, H, W) map of input {x.data.shape}")
    groups = [t.data for t in more]
    F, Cw, k, k2 = w.data.shape
    if Cw != sum(map(len, (x.data, *groups))) or k != k2 or k % 2 == 0:
        raise OctCystError(f"kernel {w.data.shape} incompatible with input {' + '.join(str(t.data.shape) for t in xs)}")
    if gain is not None and k == 1:
        raise OctCystError("conv2d takes a gain only with a k x k kernel (k > 1)")
    if b is not None and b.data.shape != (F,):
        raise OctCystError(f"bias shape {b.data.shape} != ({F},)")
    if drop is not None and not relu:
        raise OctCystError("conv2d applies dropout only to a rectified output (relu=True)")
    y = _conv(x.data, w.data, dilation, groups, a)
    if b is not None:
        y += b.data[:, None, None]
    if relu:
        np.maximum(y, 0, out=y)
    scale = None
    if drop is not None and drop[0] != 0.0:
        p, seed = drop
        scale = y.dtype.type(1.0 / (1.0 - p))
        # two in-place multiplies: no float temporary, and the draw dies here
        y *= uniform_at_least(seed, y.size, p).reshape(y.shape)
        y *= scale
    out = Tensor(y)

    def _bw():
        go = out.grad
        if relu:
            # safe in place: backward drops out.grad as soon as this closure
            # returns, so no caller ever sees the masked array.  A multiply,
            # unlike assigning zeros, keeps the -0.0 signs that go * mask gives.
            np.multiply(go, out.data > 0, out=go)
        if scale is not None:
            go *= scale
        if b is not None and b.requires_grad:
            _accum(b, go.sum(axis=(1, 2)))
        inputs = any(t.requires_grad for t in (*xs, *gains))
        if k > 1:
            gx, dw, ga = _conv_grads(go, w.data, dilation, (x.data, *groups), a, inputs)
            if gain is not None and gain.requires_grad:
                _accum(gain, ga)
        elif inputs:
            gx = _conv(go, _flip(w.data), dilation)
        c1 = 0
        for t in xs:  # each group that needs it takes its own disjoint view of gx
            c0, c1 = c1, c1 + len(t.data)
            if t.requires_grad:
                _accum(t, gx[c0:c1])
        if w.requires_grad:
            _accum(w, dw if k > 1 else _weight_grad_1x1((x.data, *groups), go))

    parents = (*xs, *gains, w) if b is None else (*xs, *gains, w, b)
    return _attach(out, parents, _bw)


# The four positions of a 2x2 window, in row-major order.
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def transposed_conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Stride-2 transposed convolution with a 2x2 kernel.

    x: (C, H, W); w: (C, F, 2, 2); output (F, 2H, 2W).  Defined as the
    adjoint of a stride-2 2x2 convolution, which doubles spatial dims
    exactly."""
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise OctCystError("transposed_conv2d expects 3-D input and 4-D kernel")
    C, H, W = x.data.shape
    Cw, F, k1, k2 = w.data.shape
    if Cw != C or (k1, k2) != (2, 2):
        raise OctCystError(f"kernel {w.data.shape} incompatible with input {x.data.shape}")
    # rows (f, di, dj) of one GEMM hold output pixels (2i + di, 2j + dj)
    w2 = w.data.reshape(C, 4 * F)
    z = (w2.T @ x.data.reshape(C, H * W)).reshape(F, 2, 2, H, W)
    # one copy per (di, dj), each along whole rows: a single interleaving
    # copy would run its innermost loop over dj, two elements long
    y = np.empty((F, H, 2, W, 2), dtype=x.data.dtype)
    for di, dj in _QUADRANTS:
        y[:, :, di, :, dj] = z[:, di, dj]
    out = Tensor(y.reshape(F, 2 * H, 2 * W))

    def _bw():
        g2 = out.grad.reshape(F, H, 2, W, 2).transpose(0, 2, 4, 1, 3).reshape(4 * F, H * W)
        if w.requires_grad:
            _accum(w, (x.data.reshape(C, H * W) @ g2.T).reshape(w.data.shape))
        if x.requires_grad:
            _accum(x, (w2 @ g2).reshape(C, H, W))

    return _attach(out, (x, w), _bw)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling; backward routes to the first (row-major) maximum.

    Works on the four strided quadrant views x[:, di::2, dj::2] without
    copying them.  A NaN in a window pools to NaN, and such a window routes
    no gradient."""
    C, H, W = x.data.shape
    if H % 2 or W % 2:
        raise OctCystError(f"max_pool2 needs even spatial dims, got {H}x{W}")
    quads = [x.data[:, di::2, dj::2] for di, dj in _QUADRANTS]
    y = quads[0].copy()
    for q in quads[1:]:
        # numpy's maximum returns its second operand on a tie (-0.0 vs 0.0),
        # so the first maximum stays, and propagates NaN
        np.maximum(q, y, out=y)
    out = Tensor(y)

    def _bw():
        # every element of gx is written, as the gradient's bits times the
        # 0/1 routing mask: exact, with no branch per element, where a
        # masked copy into zeros ran about twice as long at the frame
        gx = np.empty_like(x.data)
        bits = np.dtype(f"u{gx.itemsize}")
        gxb, gb = gx.view(bits), out.grad.view(bits)
        pending = np.ones(y.shape, dtype=bool)  # windows not yet routed
        hit = np.empty(y.shape, dtype=bool)
        for (di, dj), q in zip(_QUADRANTS, quads):
            np.equal(q, y, out=hit)
            hit &= pending
            pending ^= hit
            np.multiply(gb, hit, out=gxb[:, di::2, dj::2])
        _accum(x, gx)

    return _attach(out, (x,), _bw)


def attention_gate(
    x_l: Tensor, g: Tensor, w_x: Tensor, w_g: Tensor, b_xg: Tensor, psi: Tensor, b_psi: Tensor
) -> Tensor:
    """The learned coefficient map in (0,1) of a skip, as one op.

    w_x (F_int, C_skip, 1, 1) and w_g (F_int, C_gate, 1, 1) project the
    skip and gating maps to an inner width; psi (1, F_int, 1, 1) projects
    that to the coefficient logit.  Returns alpha = sigmoid(psi(relu(Wx*x_l
    + Wg*g + b_xg)) + b_psi), a (1, H, W) map.  The gated skip alpha * x_l
    is never formed: the decoder convolution takes x_l with alpha as its
    gain (see conv2d), which scales x_l's rows as it copies them into its
    tap matrix.  Only the rectified inner map and alpha are kept for the
    closed-form backward, which starts from alpha's gradient."""
    if x_l.data.shape[1:] != g.data.shape[1:]:
        raise OctCystError(
            f"skip {x_l.data.shape} and gating {g.data.shape} spatial dims differ"
        )
    inner = _conv(g.data, w_g.data, 1)
    inner += b_xg.data[:, None, None]
    inner += _conv(x_l.data, w_x.data, 1)
    np.maximum(inner, 0, out=inner)
    z = _conv(inner, psi.data, 1)
    z += b_psi.data[:, None, None]
    out = Tensor(_sigmoid_data(z))

    def _bw():
        alpha = out.data
        gz = out.grad * alpha * (1.0 - alpha)
        if b_psi.requires_grad:
            _accum(b_psi, gz.sum(axis=(1, 2)))
        if psi.requires_grad:
            _accum(psi, _weight_grad_1x1((inner,), gz))
        # the ReLU's mask, in place as conv2d's is: inner > 0 exactly where
        # the sum was, as the ReLU keeps a NaN sum and NaN > 0 is false
        gs = _conv(gz, _flip(psi.data), 1)
        np.multiply(gs, inner > 0, out=gs)
        if b_xg.requires_grad:
            _accum(b_xg, gs.sum(axis=(1, 2)))
        # x_l's gradient from the decoder convolution arrives first, since
        # that op reads alpha, and max_pool2's last, so x_l sums its three
        # in one order
        for x, w in ((x_l, w_x), (g, w_g)):
            if x.requires_grad:
                _accum(x, _conv(gs, _flip(w.data), 1))
            if w.requires_grad:
                _accum(w, _weight_grad_1x1((x.data,), gs))

    return _attach(out, (x_l, g, w_x, w_g, b_xg, psi, b_psi), _bw)


def aspp(
    x: Tensor, branches: list[tuple[Tensor, Tensor, int]], fuse_w: Tensor, fuse_b: Tensor
) -> Tensor:
    """Parallel 3x3 atrous branches fused by a 1x1 conv over their channels.

    branches: one (w (C, C, 3, 3), b (C,), dilation rate) triple per
    branch; fuse_w: (C, len(branches)*C, 1, 1).  The fuse takes the
    branches as its channel groups, so their concatenation is never kept."""
    outs = [conv2d(x, w, b, dilation=r) for w, b, r in branches]
    return conv2d(outs[0], fuse_w, fuse_b, more=tuple(outs[1:]))
