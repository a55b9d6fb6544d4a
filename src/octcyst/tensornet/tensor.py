"""Reverse-mode automatic differentiation over numpy arrays.

Each operation returns a new Tensor holding its result; when an input
requires gradients, the output also records its parents and a closure that
pushes the upstream gradient to them.  `backward` topologically sorts the
recorded graph from the loss and runs the closures, accumulating into
`.grad` of every tensor that requires it.
After `backward` only leaves (tensors without a recorded closure, such as
parameters) keep `.grad`: every other tensor, the loss included, drops its
gradient once its closure has consumed it, and its activation is freed
once the closures of all its consumers have run.

A gradient is owned by the tensor it is accumulated into: `_accum` takes
the first array a closure hands it, so no closure may hand overlapping
memory to two tensors.  A tensor that already holds a `.grad` adds into
it instead: a parameter's `.grad` is a view into one flat gradient array
that backward never replaces.  Every closure hands each parent an array of its
own, except `conv2d`, whose channel groups take disjoint views of its
one input-gradient array; with a gain, the first group's view is scaled
by the gain in place before it is handed over.  A closure may therefore
consume its own output's gradient in place, since `backward` drops it
right after.

Storage is float32 by default; building a graph from float64 tensors runs
the whole computation in float64, which the gradient checks rely on.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..errors import OctCystError


def keep_large_blocks_on_heap() -> None:
    """Keep frame-size arrays on glibc's malloc heap, so that one freed is
    reused rather than mmapped, faulted in and zeroed again every step.

    M_MMAP_THRESHOLD (adaptive up to 32 MiB, below a 40 MiB level-1 array)
    goes to 1 GiB, and M_TRIM_THRESHOLD to the int maximum, or free() hands
    the heap top back to be faulted in again.  Process-global: freed memory
    stays with the process until it exits.  Does nothing without a C
    library, without mallopt, or where mallopt returns 0 (musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-1, 2**31 - 1):  # M_TRIM_THRESHOLD
        mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    def item(self) -> float:
        return float(self.data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into t.grad.  The first gradient becomes t.grad, cast to t's
    dtype only if it differs, so the caller hands over `g` for good."""
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _attach(out: Tensor, parents: tuple, backward_fn) -> Tensor:
    """Record the graph edge if any parent needs grads."""
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _sigmoid_data(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive exponent cannot overflow: 1/(1+e) or e/(1+e)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def mean(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.mean(), dtype=x.data.dtype))

    def _bw():
        _accum(x, np.full_like(x.data, out.grad / x.data.size))

    return _attach(out, (x,), _bw)


def backward(loss: Tensor, grad: float = 1.0) -> None:
    """Backpropagate from `loss`, accumulating into .grad of every leaf
    that requires gradients.  `grad` seeds the upstream gradient.  The graph
    is released as it runs: every gradient but a leaf's, the loss's
    included, is dropped once consumed, and a second call on `loss` raises
    OctCystError."""
    if loss._backward is None:
        raise OctCystError(
            "tensor has no recorded graph; run the forward pass on tensors "
            "that require gradients"
        )
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # a leaf takes its gradient from its consumers' closures alone
            if p._backward is not None:
                stack.append((p, False))
    _accum(loss, np.full_like(loss.data, grad))
    # popping drops the list's reference, so a node is freed as soon as the
    # closures of all its consumers, which ran before it, are released
    while topo:
        node = topo.pop()
        node._backward()
        node.grad = None
        # closure -> output tensor -> closure: only releasing breaks the cycle
        node._backward = None
        node._parents = ()
