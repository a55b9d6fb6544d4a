"""Central finite-difference gradient checking, and a weighted-sum loss,
shared by the test modules."""

import numpy as np

from octcyst.tensornet import Tensor
from octcyst.tensornet.tensor import _accum, _attach


def weighted_sum(x, weights):
    """Scalar loss sum(x * weights), as one op: the upstream gradient of x
    is the weights themselves, times backward's seed."""
    w = np.asarray(weights, dtype=x.data.dtype)
    out = Tensor(np.asarray((x.data * w).sum(), dtype=x.data.dtype))

    def _bw():
        _accum(x, w * out.grad)

    return _attach(out, (x,), _bw)


def max_rel_error_fd(params, loss_fn, h=1e-5, floor=1e-6):
    """Worst relative error between analytic grads already stored in the
    parameters and central finite differences of loss_fn.

    Perturbs every scalar of every parameter in place; loss_fn() must
    recompute the scalar loss from current parameter values.  It runs with
    requires_grad off on every parameter, so it records no graph.  The
    denominator is floored at the central-difference round-off scale
    (|loss|*eps/h ~ 1e-11 absolute at h=1e-5 in float64), so gradients
    smaller than what FD can resolve are compared on absolute terms.
    """
    worst = 0.0
    for _, tensor in params.items():
        tensor.requires_grad = False
    try:
        for _, tensor in params.items():
            flat = tensor.data.reshape(-1)
            an = tensor.grad.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                fp = loss_fn()
                flat[k] = orig - h
                fm = loss_fn()
                flat[k] = orig
                fd = (fp - fm) / (2.0 * h)
                denom = max(abs(fd), abs(an[k]), floor)
                worst = max(worst, abs(fd - an[k]) / denom)
    finally:
        for _, tensor in params.items():
            tensor.requires_grad = True
    return worst


def random_tensor(shape, seed, dtype=np.float64, spread=1.0):
    return (np.random.default_rng(seed).random(shape) * 2.0 - 1.0) * spread
