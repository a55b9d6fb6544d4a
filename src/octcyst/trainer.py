"""Training and inference for the segmentation network.

Training is a deterministic function of the data bytes and the two seeds
(network init, shuffling/dropout): epochs shuffle with a seeded
Fisher-Yates, batches keep the trailing partial batch, the batch loss is
the mean of per-sample binary cross-entropies, and parameters follow the
bias-corrected Adam update.  Checkpoints round-trip bitwise.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dataio.formats import atomic_write_bytes, format_settings, parse_settings
from .errors import InvalidConfig, OctCystError
from .rng import SplitMix64, derive_seed
from .samplekit import Sample, crop_from_reference
from .tensornet import ParamStore, Tensor, UNet, UNetConfig, backward, build_unet, param_layout
from .tensornet.tensor import _accum, _attach, _sigmoid_data

CHECKPOINT_MAGIC = b"UNCK"
CHECKPOINT_VERSION = 2

LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Every training backward is seeded this many times larger, and the batch's
# summed gradient is divided by it once.  Late in training the loss gradient
# of a saturated pixel is about 6e-40, a subnormal float32 that slows the
# GEMMs it enters several-fold; scaled, it stays normal.  A power of two, so
# the scaling changes no bit of a gradient value that is normal either way.
LOSS_SCALE = 2.0**40
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 10
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")


def bce_loss(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits), as the stable
    max(z, 0) - z*t + log1p(exp(-|z|)); its gradient (sigmoid(z) - t) / N
    still corrects a pixel whose probability saturated at the wrong end.
    At a pixel saturated at the right end that gradient is tiny (about
    6e-40 for z = -80 in a batch of five desk frames), so train seeds the
    backward with LOSS_SCALE to keep it a normal float32."""
    z = logits.data
    t = np.asarray(target, dtype=z.dtype)
    if t.shape != z.shape:
        raise OctCystError(f"logits {z.shape} vs target {t.shape}")
    per_pixel = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(np.asarray(per_pixel.mean(), dtype=z.dtype))

    def _bw():
        _accum(logits, (_sigmoid_data(z) - t) * (out.grad / z.size))

    return _attach(out, (logits,), _bw)


@dataclass
class AdamState:
    """Adam's moments, each one array shaped like the values it updates,
    and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_values(cls, values: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(values), np.zeros_like(values))


def adam_step(values: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam update of `values`, in place, by `grad`: one
    elementwise pass over all of them."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    m, v = state.m, state.v
    m += (1.0 - b1) * (grad - m)
    v += (1.0 - b2) * (grad * grad - v)
    denom = np.sqrt(v / c2) + ADAM_EPS  # first, so that at most two temporaries are live
    values -= LEARNING_RATE * (m / c1) / denom


@dataclass(frozen=True, eq=False)  # identity: a field is an ndarray
class Checkpoint:
    config: UNetConfig
    values: np.ndarray  # every value of param_layout(config), in name order

    @cached_property
    def network(self) -> UNet:
        """The inference network over views of `values`, built once on
        first use; its parameters require no gradients, so its forward pass
        records no graph."""
        return UNet(self.config, ParamStore(self.config, self.values))


def _non_finite_tensor(cfg: UNetConfig, flat: np.ndarray) -> Optional[str]:
    """The name of the tensor that holds the first NaN or inf of `flat`,
    laid out as the values of param_layout(cfg) in name order, or None if
    every value is finite."""
    finite = np.isfinite(flat)
    if finite.all():
        return None
    return ParamStore(cfg, flat).name_at(int(finite.argmin()))


def _sample_grad(net: UNet, values, target, seed: int, scale: float) -> tuple[float, np.ndarray]:
    """One sample's training loss, unscaled, and its flat gradient, in
    name order, of the loss times `scale` (train passes LOSS_SCALE over the
    batch size); every parameter's .grad is None again on return."""
    loss = bce_loss(net.forward(values, training=True, seed=seed), target[None, :, :])
    backward(loss, grad=scale)
    leaves = [t for _, t in net.store.items()]
    grad = np.concatenate([t.grad.ravel() for t in leaves])
    for t in leaves:
        t.grad = None
    return loss.item(), grad


def _core_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _share_grads(net: UNet, jobs: list, scale: float, summed: bool) -> tuple[list, list]:
    """The losses of the (values, target, seed) `jobs`, in order, and their
    _sample_grad gradients: one running sum in job order if `summed`, which
    adds them as the batch's sum does, else one per job."""
    losses, grads = [], []
    for job in jobs:
        loss, grad = _sample_grad(net, *job, scale)
        losses.append(loss)
        if summed and grads:
            np.add(grads[0], grad, out=grads[0])
        else:
            grads.append(grad)
    return losses, grads


def _train_worker(conn, unet_cfg: UNetConfig) -> None:
    """A training worker: for each (parameter values, jobs, scale, summed)
    it receives, it sends back the _share_grads of the jobs, or the text of
    the exception one raised.  It stops when the parent closes its end of
    the pipe.  It ignores SIGINT, so that Ctrl-C stops only the parent,
    which kills it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    net, params = build_unet(unet_cfg)
    try:
        while True:
            flat, jobs, scale, summed = conn.recv()
            params.flat[...] = flat
            try:
                reply = _share_grads(net, jobs, scale, summed)
            except Exception as e:  # sent back, so that the parent raises it
                reply = str(e) if isinstance(e, OctCystError) else f"{type(e).__name__}: {e}"
            conn.send(reply)
    except (EOFError, ConnectionError):
        pass


def _start_workers(workers: list, count: int, unet_cfg: UNetConfig) -> None:
    """Start `count` spawned training workers at one BLAS thread each,
    appending each (process, pipe) to `workers` once it runs; os.environ
    holds the thread settings only while they start."""
    ctx = multiprocessing.get_context("spawn")
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        for _ in range(count):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_train_worker, args=(child_conn, unet_cfg), daemon=True)
            proc.start()
            child_conn.close()
            workers.append((proc, conn))
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


def _stop_workers(workers: list) -> None:
    """Close every worker's pipe, kill the worker and join it.  A worker
    holds no file, lock or shared memory, so it needs no clean exit, and a
    busy one is not waited for."""
    for proc, conn in workers:
        conn.close()
        proc.kill()
    for proc, _ in workers:
        proc.join()


def _worker_grads(workers: list, flat: np.ndarray, jobs: list, scale: float, where: str):
    """The _share_grads of every worker's share of the jobs, in job order,
    each yielded as its worker's reply arrives.  Each worker takes one
    contiguous share; the first sums its share, since the batch's sum
    starts with it, and the others send one gradient per job."""
    n, w = len(jobs), len(workers)
    # share i starts at job ceil(i n / w), so the larger shares are sent first
    ends = [-(-i * n // w) for i in range(w + 1)]
    shares = [(workers[i], jobs[ends[i] : ends[i + 1]]) for i in range(w) if ends[i] < ends[i + 1]]
    try:
        for i, ((proc, conn), share) in enumerate(shares):
            conn.send((flat, share, scale, i == 0))
        for (proc, conn), _ in shares:
            reply = conn.recv()
            if isinstance(reply, str):
                raise OctCystError(reply)
            yield reply
            del reply  # so that it is not held while the next one arrives
    except (EOFError, ConnectionError):
        proc.join(1.0)
        raise OctCystError(f"{where}: training worker exited with code {proc.exitcode}") from None


def train(
    data: Sequence[tuple[Sample, np.ndarray]],
    unet_cfg: UNetConfig,
    train_cfg: TrainConfig,
    log_fn: Optional[Callable[[int, float], None]] = None,
) -> Checkpoint:
    """Train on (sample, target) pairs; each target is a {0,1} mask in its
    sample's frame, which bce_loss checks.  Calls log_fn(epoch, mean_loss)
    after each epoch and returns the final checkpoint.  A non-finite loss or
    gradient raises OctCystError naming the epoch and batch.

    With more than one usable core and batches of more than one sample,
    spawned workers, one per core up to the batch and set sizes, compute
    the samples' gradients; their sum, in sample order, is the same."""
    if len(data) == 0:
        raise OctCystError("no training samples")

    net, params = build_unet(unet_cfg)
    state = AdamState.for_values(params.flat)
    n = len(data)
    workers: list = []
    try:
        count = min(_core_count(), train_cfg.batch_size, n)
        if count > 1:
            _start_workers(workers, count, unet_cfg)
        for epoch in range(train_cfg.epochs):
            order = list(range(n))
            SplitMix64(derive_seed(train_cfg.seed, epoch)).shuffle(order)
            epoch_losses = []
            for batch_no, start in enumerate(range(0, n, train_cfg.batch_size)):
                batch = order[start : start + train_cfg.batch_size]
                where = f"epoch {epoch}, batch {batch_no}"
                jobs = [
                    (data[idx][0].values, data[idx][1], derive_seed(train_cfg.seed, epoch, batch_no, k))
                    for k, idx in enumerate(batch)
                ]
                scale = LOSS_SCALE / len(batch)
                if workers:
                    shares = _worker_grads(workers, params.flat, jobs, scale, where)
                else:
                    shares = [_share_grads(net, jobs, scale, summed=True)]
                grad = None
                for losses, grads in shares:
                    epoch_losses += losses
                    for sample_grad in grads:
                        grad = sample_grad if grad is None else np.add(grad, sample_grad, out=grad)
                grad *= np.float32(1 / LOSS_SCALE)
                if not np.all(np.isfinite(epoch_losses[-len(batch) :])):
                    raise OctCystError(f"{where}: non-finite training loss")
                name = _non_finite_tensor(unet_cfg, grad)
                if name is not None:
                    raise OctCystError(f"{where}: non-finite gradient of {name}")
                adam_step(params.flat, grad, state)
                # so that the next batch's backward runs without them
                del shares, grads, sample_grad, grad
            if log_fn is not None:
                log_fn(epoch, float(np.mean(epoch_losses)))
    finally:
        _stop_workers(workers)
    return Checkpoint(unet_cfg, params.values())


def predict(cp: Checkpoint, sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Probability map and binary mask, both in the scan's original dims.

    The mask is sigmoid(logits) >= 0.5 intersected with the sample's ROI
    channel support; any other cut-off is applied to the probability map."""
    logits = cp.network.forward(sample.values, training=False)
    prob = _sigmoid_data(crop_from_reference(logits.data[0], sample.offset, sample.orig_dims))
    roi = crop_from_reference(sample.roi_channel, sample.offset, sample.orig_dims)
    mask = ((prob >= 0.5) & (roi != 0)).astype(np.uint8)
    return prob.astype(np.float32), mask


def save_checkpoint(cp: Checkpoint, path) -> None:
    """Binary layout: magic, version and config length as two uint32, the
    config as format_settings text, then each tensor's float32 values in
    lexicographic name order, all little-endian.  Nothing else is stored:
    the config fixes every tensor's name and shape.  Values that are not
    one array of exactly the config's values, a tensor holding a NaN or
    inf, or a config whose text would not read back as itself raise
    OctCystError, and nothing is written."""
    config = format_settings(cp.config).encode("utf-8")
    _parse_config_block(config, path)
    n = _value_count(cp.config)
    if cp.values.shape != (n,):
        raise OctCystError(f"{path}: values of shape {cp.values.shape} where the config lays out {n}")
    name = _non_finite_tensor(cp.config, cp.values)
    if name is not None:
        raise OctCystError(f"{path}: tensor {name} contains non-finite values")
    header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(config)) + config
    atomic_write_bytes(path, header + np.asarray(cp.values, dtype="<f4").tobytes())


def _value_count(cfg: UNetConfig) -> int:
    return sum(math.prod(shape) for _, shape, _ in param_layout(cfg))


def _parse_config_block(block: bytes, path) -> UNetConfig:
    """The UNetConfig of a checkpoint: every field exactly once, nothing
    else, in exactly the text save_checkpoint writes for it."""
    try:
        values = parse_settings(block.decode("utf-8"), UNetConfig(), "config block")
        cfg = UNetConfig(**values)
    except (UnicodeDecodeError, InvalidConfig) as e:
        raise OctCystError(f"{path}: bad checkpoint config: {e}") from e
    canonical = format_settings(cfg).encode("utf-8")
    if block != canonical:
        raise OctCystError(
            f"{path}: bad checkpoint config: {block!r} is not the canonical text {canonical!r}"
        )
    return cfg


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint file.  The config block must set every
    UNetConfig field exactly once; param_layout(config) then fixes every
    tensor's name and shape.  The file must be exactly as long as those
    values, which is checked before any is read, and every value must be
    finite."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise OctCystError(f"{path}: not a checkpoint file")

    def require(end: int) -> None:
        if len(data) < end:
            raise OctCystError(f"{path}: truncated at byte {len(data)}")

    require(12)
    version, config_len = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise OctCystError(f"{path}: checkpoint version {version} unsupported")
    pos = 12 + config_len
    require(pos)
    cfg = _parse_config_block(data[12:pos], path)
    n = _value_count(cfg)
    end = pos + 4 * n
    require(end)
    if len(data) > end:
        raise OctCystError(f"{path}: {len(data) - end} trailing bytes after the last tensor")
    values = np.frombuffer(data, "<f4", n, pos).astype(np.float32)
    name = _non_finite_tensor(cfg, values)
    if name is not None:
        raise OctCystError(f"{path}: tensor {name} contains non-finite values")
    return Checkpoint(cfg, values)
