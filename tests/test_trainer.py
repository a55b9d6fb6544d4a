import math
import multiprocessing
import os
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import octcyst
import octcyst.trainer as trainer_mod
from octcyst.cli import run
from octcyst.dataio import PhantomSpec, gen_phantom
from octcyst.dataio.formats import format_settings
from octcyst.errors import InvalidConfig, OctCystError
from octcyst.samplekit import ReferenceDims, Sample, pad_to_reference, prepare_sample
from octcyst.tensornet import Tensor, UNet, UNetConfig, backward, build_unet, param_layout
from octcyst.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LEARNING_RATE,
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    bce_loss,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)


def _tiny_cfg(seed=5):
    return UNetConfig(
        input_channels=2,
        base_channels=2,
        depth=2,
        bottleneck_channels=8,
        aspp_rates=(1, 2),
        dropout_per_level=(0.1, 0.1, 0.2),
        seed=seed,
    )


_TINY_NAMES = sorted(name for name, _, _ in param_layout(_tiny_cfg()))


# --- BCE ----------------------------------------------------------------------


def test_bce_perfect_prediction_near_zero():
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    loss = bce_loss(Tensor(np.where(target == 1.0, 40.0, -40.0)), target)
    assert 0.0 <= loss.item() <= 1.1e-7


def test_bce_uniform_half_is_ln2():
    target = (np.random.default_rng(0).random((6, 6)) > 0.5).astype(float)
    loss = bce_loss(Tensor(np.zeros((6, 6))), target)  # logit 0 is p = 0.5
    assert abs(loss.item() - math.log(2.0)) <= 1e-7


def test_bce_matches_direct_sum_oracle():
    rng = np.random.default_rng(1)
    pred = rng.random((8, 9)) * 0.98 + 0.01
    target = (rng.random((8, 9)) > 0.6).astype(float)
    loss = bce_loss(Tensor(np.log(pred / (1.0 - pred))), target)
    acc = 0.0
    for p, t in zip(pred.ravel(), target.ravel()):
        acc += t * math.log(p) + (1 - t) * math.log(1 - p)
    assert abs(loss.item() - (-acc / pred.size)) <= 1e-9


def test_bce_saturated_wrong_pixels_keep_their_gradient():
    # float32 sigmoid of these logits rounds to exactly 0 or 1, against the
    # opposite target; each pixel still gets (sigmoid(z) - t) / N
    z = np.array([[20.0, -20.0], [40.0, -40.0]], dtype=np.float32)
    target = np.array([[0.0, 1.0], [0.0, 1.0]])
    logits = Tensor(z, requires_grad=True)
    loss = bce_loss(logits, target)
    backward(loss)
    expected = (1.0 / (1.0 + np.exp(-z.astype(np.float64))) - target) / z.size
    assert np.max(np.abs(logits.grad - expected)) <= 1e-8
    assert abs(loss.item() - 30.0) <= 1e-5


def test_bce_shape_mismatch():
    with pytest.raises(OctCystError, match=r"logits \(2, 2\) vs target \(2, 3\)"):
        bce_loss(Tensor(np.full((2, 2), 0.5)), np.zeros((2, 3)))


def test_bce_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.random((4, 4))
        target = (rng.random((4, 4)) > 0.5).astype(float)
        assert bce_loss(Tensor(pred), target).item() >= 0.0


# --- Adam ---------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    theta = np.array([1.5], dtype=np.float64)
    state = AdamState.for_values(theta)
    adam_step(theta, np.zeros(1), state)
    assert theta[0] == 1.5
    assert state.t == 1


def test_adam_first_step_magnitude():
    theta = np.array([0.0], dtype=np.float64)
    state = AdamState.for_values(theta)
    adam_step(theta, np.array([1.0]), state)
    expected = -LEARNING_RATE * 1.0 / (1.0 + 1e-8)
    assert abs(theta[0] - expected) <= 1e-9
    assert abs(abs(theta[0]) - LEARNING_RATE) <= 1e-9


def test_adam_ten_step_trajectory_matches_recurrence_oracle():
    # independent recurrence in plain floats
    grads = [math.sin(i + 1.0) for i in range(10)]
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    theta, m, v = 0.3, 0.0, 0.0
    expected = []
    for t, g in enumerate(grads, 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        expected.append(theta)

    values = np.array([0.3], dtype=np.float64)
    state = AdamState.for_values(values)
    got = []
    for g in grads:
        adam_step(values, np.array([g]), state)
        got.append(float(values[0]))
    assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-12
    assert LEARNING_RATE == lr


def _per_tensor_adam_step(params, grads, m, v, t, lr):
    """The reference: the bias-corrected update applied one tensor at a
    time, each tensor's moments in a dict keyed by its name."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name in params:
        g = grads[name]
        m[name] += (1.0 - b1) * (g - m[name])
        v[name] += (1.0 - b2) * (g * g - v[name])
        params[name] = params[name] - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)


def test_flat_adam_step_matches_the_per_tensor_update_byte_for_byte():
    shapes = {"a.b": (4,), "a.w": (4, 3, 3, 3), "b.w": (2, 4, 1, 1), "c": (7,)}
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])

    def split(flat):
        return {
            name: part.reshape(shape)
            for (name, shape), part in zip(shapes.items(), np.split(flat, ends[:-1]))
        }

    rng = np.random.default_rng(8)
    values = rng.standard_normal(ends[-1]).astype(np.float32)
    params = {name: part.copy() for name, part in split(values).items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    state = AdamState.for_values(values)
    for t in range(1, 201):
        # magnitudes from 1e-8 to 1e1, of either sign
        grad = rng.choice([-1.0, 1.0], ends[-1]) * 10.0 ** rng.uniform(-8.0, 1.0, ends[-1])
        grad = grad.astype(np.float32)
        adam_step(values, grad, state)
        _per_tensor_adam_step(params, split(grad), m, v, t, LEARNING_RATE)
    assert state.t == 200
    for flat, per_tensor in ((values, params), (state.m, m), (state.v, v)):
        assert flat.dtype == np.float32
        assert flat.tobytes() == b"".join(per_tensor[name].tobytes() for name in shapes)


def test_train_consumes_the_gradients_it_applies(monkeypatch):
    # each batch then starts as the first one does, with no gradients, so a
    # later batch's gradient is its own and not a sum over batches.  Without
    # dropout a batch's gradient is one backward at the values it updates.
    import octcyst.trainer as trainer_mod

    cfg = replace(_tiny_cfg(), dropout_per_level=(0.0, 0.0, 0.0))
    stores, steps = [], []

    def capturing_build(cfg):
        net, store = build_unet(cfg)
        stores.append(store)
        return net, store

    def recording_step(values, grad, state):
        assert all(t.grad is None for _, t in stores[0].items())
        steps.append((values.copy(), grad.copy()))
        adam_step(values, grad, state)

    monkeypatch.setattr(trainer_mod, "build_unet", capturing_build)
    monkeypatch.setattr(trainer_mod, "adam_step", recording_step)
    (sample, target), = _phantom_dataset(1, ReferenceDims(16, 16))
    train([(sample, target)], cfg, TrainConfig(batch_size=1, epochs=2, seed=1))
    assert len(steps) == 2
    for values, grad in steps:
        net, fresh = build_unet(cfg)
        fresh.flat[...] = values
        backward(bce_loss(net.forward(sample.values, training=True), target[None, :, :]))
        assert grad.tobytes() == b"".join(t.grad.tobytes() for _, t in fresh.items())


# --- loss scaling ---------------------------------------------------------------

_FLOAT32_TINY = np.finfo(np.float32).tiny  # the smallest normal float32


def _saturating_build(monkeypatch):
    """Make train build networks whose head bias drives every logit to
    about -85, as a trained network's confident background: against a 0
    target each pixel's loss gradient sigmoid(z) / N is then below the
    smallest normal float32 unless the backward is scaled."""

    def build(cfg):
        net, store = build_unet(cfg)
        store["head.b"].data[...] = -85.0
        return net, store

    monkeypatch.setattr(trainer_mod, "build_unet", build)


def test_a_saturated_heads_backward_receives_no_subnormal_gradient(monkeypatch):
    _saturating_build(monkeypatch)
    seen = []

    def capturing_loss(logits, target):
        # wrap the head's closure: it receives the loss gradient as logits.grad
        out = bce_loss(logits, target)
        head_backward = logits._backward

        def wrapped():
            seen.append(logits.grad.copy())
            head_backward()

        logits._backward = wrapped
        return out

    monkeypatch.setattr(trainer_mod, "bce_loss", capturing_loss)
    (sample, target), = _phantom_dataset(1, ReferenceDims(16, 16))
    data = [(sample, np.zeros_like(target))]
    train(data, _tiny_cfg(), TrainConfig(batch_size=1, epochs=1, seed=1))
    (g,) = seen
    assert np.all(g != 0)
    subnormal = np.abs(g) < _FLOAT32_TINY
    assert not subnormal.any(), f"{subnormal.sum()} of {g.size} values are subnormal"


def test_loss_scaling_changes_no_normal_gradient_value_and_not_the_loss(monkeypatch):
    scale = trainer_mod.LOSS_SCALE
    assert math.frexp(scale)[0] == 0.5 and scale > 1.0
    _use_cores(monkeypatch, 1)  # so that every _sample_grad runs here
    _saturating_build(monkeypatch)
    calls, steps, losses = [], [], []
    sample_grad = trainer_mod._sample_grad

    def recording_sample_grad(net, values, target, seed, scale):
        calls.append((values, target, seed, scale))
        return sample_grad(net, values, target, seed, scale)

    def recording_step(values, grad, state):
        steps.append(grad.copy())
        adam_step(values, grad, state)

    monkeypatch.setattr(trainer_mod, "_sample_grad", recording_sample_grad)
    monkeypatch.setattr(trainer_mod, "adam_step", recording_step)
    # one sample saturated at its target, one whose cysts are saturated wrong
    (s0, t0), (s1, t1) = _phantom_dataset(2, ReferenceDims(16, 16))
    data = [(s0, np.zeros_like(t0)), (s1, t1)]
    train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=1, seed=1),
          log_fn=lambda e, l: losses.append(l))
    (got,) = steps
    assert [c[3] for c in calls] == [scale / 2, scale / 2]

    # the unscaled batch: each backward seeded by 1/2, summed in sample order
    net, _ = trainer_mod.build_unet(_tiny_cfg())
    ref, ref_losses = None, []
    for values, target, seed, _ in calls:
        loss, g = sample_grad(net, values, target, seed, 0.5)
        ref_losses.append(loss)
        ref = g if ref is None else ref + g
    assert losses == [float(np.mean(ref_losses))]
    normal = (np.abs(ref) >= _FLOAT32_TINY) & (np.abs(got) >= _FLOAT32_TINY)
    assert normal.sum() > 0.9 * np.count_nonzero(ref)
    assert got[normal].tobytes() == ref[normal].tobytes()


# --- training loop --------------------------------------------------------------


def _phantom_dataset(n, ref, seed0=50):
    data = []
    for i in range(n):
        spec = PhantomSpec(
            rows=16, cols=16, ilm_row=2, ism_row=11, n_cysts=1,
            cyst_axis_range=(1, 2), seed=seed0 + i,
        )
        img, mask, _, _ = gen_phantom(spec)
        sample = prepare_sample(img, ref)
        target, _ = pad_to_reference(mask.astype(np.float32), ref)
        data.append((sample, target))
    return data


def test_train_empty_dataset():
    with pytest.raises(OctCystError, match="no training samples"):
        train([], _tiny_cfg(), TrainConfig(epochs=1))


def test_train_dim_mismatch():
    # a target whose dims differ from its sample's is caught by the loss
    ref = ReferenceDims(16, 16)
    (sample, _), = _phantom_dataset(1, ref)
    bad = np.zeros((24, 24), dtype=np.float32)
    with pytest.raises(OctCystError, match=r"logits \(1, 16, 16\) vs target \(1, 24, 24\)"):
        train([(sample, bad)], _tiny_cfg(), TrainConfig(epochs=1))


def test_train_loss_decreases_on_single_sample():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(1, ref)
    losses = []
    train(
        data,
        _tiny_cfg(),
        TrainConfig(batch_size=1, epochs=100, seed=3),
        log_fn=lambda e, l: losses.append(l),
    )
    assert len(losses) == 100
    assert losses[-1] < losses[0]


def test_train_deterministic_checkpoints(tmp_path):
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(3, ref)
    cfg = TrainConfig(batch_size=2, epochs=4, seed=11)
    cp1 = train(data, _tiny_cfg(), cfg)
    cp2 = train(data, _tiny_cfg(), cfg)
    save_checkpoint(cp1, tmp_path / "a.bin")
    save_checkpoint(cp2, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


# Trains a small network for a few steps, with training workers for
# argv[2] cores, and writes its checkpoint to argv[1].  One core trains
# in-process, at the BLAS thread count of the environment.  Its convolution
# GEMMs (8 output rows, 72-deep, 6144 columns) are large enough for
# OpenBLAS to split them across threads.
_TRAIN_SCRIPT = """
import sys
import numpy as np
import octcyst.trainer
from octcyst.samplekit import Sample
from octcyst.tensornet import UNetConfig
from octcyst.trainer import TrainConfig, save_checkpoint, train

octcyst.trainer._core_count = lambda: int(sys.argv[2])

rng = np.random.default_rng(12)
data = [
    (
        Sample(rng.random((2, 64, 96), dtype=np.float32), (64, 96)),
        (rng.random((64, 96)) > 0.8).astype(np.float32),
    )
    for _ in range(4)
]
cfg = UNetConfig(
    base_channels=8, depth=2, bottleneck_channels=32, aspp_rates=(1, 2),
    dropout_per_level=(0.1, 0.1, 0.2), seed=3,
)
save_checkpoint(train(data, cfg, TrainConfig(batch_size=2, epochs=2, seed=4)), sys.argv[1])
"""


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # in-process at 1 and at 2 BLAS threads, then 2 workers at 1 thread each
    src = str(Path(octcyst.__file__).resolve().parents[1])
    paths = []
    for threads, cores in (("1", "1"), ("2", "1"), ("2", "2")):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        path = tmp_path / f"threads{threads}-cores{cores}.bin"
        subprocess.run(
            [sys.executable, "-c", _TRAIN_SCRIPT, str(path), cores], env=env, check=True, timeout=300
        )
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


# Prints the core type that numpy's bundled OpenBLAS runs, or nothing where
# numpy.libs holds no such library or it exports no core-name function.
_CORENAME_SCRIPT = """
import ctypes
from pathlib import Path
import numpy as np
for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")):
    try:
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        continue
    corename.restype = ctypes.c_char_p
    print(corename().decode())
    break
"""


def test_checkpoint_bytes_repeat_under_a_forced_blas_core_type(tmp_path):
    # the bytes depend on the OpenBLAS kernel, so another CPU gives other
    # hashes; each run must still repeat itself under its own kernel
    src = str(Path(octcyst.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE="Haswell")
    probe = subprocess.run(
        [sys.executable, "-c", _CORENAME_SCRIPT],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    core = probe.stdout.strip()
    if core != "Haswell":
        pytest.skip(f"numpy's OpenBLAS does not run the Haswell kernel on request (probe: {core!r})")
    paths = []
    for run in ("first", "second"):
        path = tmp_path / f"{run}.bin"
        subprocess.run(
            [sys.executable, "-c", _TRAIN_SCRIPT, str(path), "1"], env=env, check=True, timeout=300
        )
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_stops_on_non_finite_loss():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(2, ref)
    sample, target = data[1]
    values = sample.values.copy()
    values[0, 8, 8] = np.nan
    data[1] = (Sample(values, sample.orig_dims), target)
    with pytest.raises(OctCystError, match=r"epoch 0, batch [01]: non-finite"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=1, epochs=2, seed=1))


@pytest.mark.parametrize(
    "which, at",
    [(0, 0), (len(_TINY_NAMES) // 2, 0), (len(_TINY_NAMES) // 2, -1), (-1, -1)],
    ids=["first-name-first-value", "middle-name-first-value", "middle-name-last-value",
         "last-name-last-value"],
)
def test_train_stops_on_non_finite_gradient(monkeypatch, which, at):
    import octcyst.trainer as trainer_mod

    # the loss stays finite: only the named parameter's gradient is poisoned
    name = _TINY_NAMES[which]
    stores = []

    def capturing_build(cfg):
        net, store = build_unet(cfg)
        stores.append(store)
        return net, store

    def poisoning_backward(loss, grad=1.0):
        backward(loss, grad)
        stores[0][name].grad.flat[at] = np.inf

    monkeypatch.setattr(trainer_mod, "build_unet", capturing_build)
    monkeypatch.setattr(trainer_mod, "backward", poisoning_backward)
    data = _phantom_dataset(1, ReferenceDims(16, 16))
    with pytest.raises(OctCystError, match=rf"^epoch 0, batch 0: non-finite gradient of {re.escape(name)}$"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=1, epochs=1, seed=1))


def test_train_epoch_log_order():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(2, ref)
    epochs = []
    train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=3, seed=1),
          log_fn=lambda e, l: epochs.append(e))
    assert epochs == [0, 1, 2]


# --- training workers -----------------------------------------------------------


def _use_cores(monkeypatch, count):
    monkeypatch.setattr(trainer_mod, "_core_count", lambda: count)


def _count_worker_batches(monkeypatch):
    """A list that gets one entry for each batch sent to training workers."""
    batches = []
    send = trainer_mod._worker_grads

    def counting(*args):
        batches.append(len(args[2]))
        return send(*args)

    monkeypatch.setattr(trainer_mod, "_worker_grads", counting)
    return batches


@pytest.mark.parametrize("batch_size", [2, 3])
def test_worker_count_does_not_change_a_checkpoint_byte(tmp_path, monkeypatch, batch_size):
    # 3 samples: batches of 2 put one sample on each of 2 workers and then
    # the last sample on 1 worker; a batch of 3 splits 2/1 between them
    data = _phantom_dataset(3, ReferenceDims(16, 16))
    children = []
    for cores in (1, 2):
        _use_cores(monkeypatch, cores)
        cp = train(
            data, _tiny_cfg(), TrainConfig(batch_size=batch_size, epochs=3, seed=11),
            log_fn=lambda e, l: children.append(len(multiprocessing.active_children())),
        )
        save_checkpoint(cp, tmp_path / f"cores{cores}.bin")
    assert children == [0, 0, 0, 2, 2, 2]
    assert (tmp_path / "cores1.bin").read_bytes() == (tmp_path / "cores2.bin").read_bytes()


def test_no_training_worker_outlives_train(monkeypatch):
    _use_cores(monkeypatch, 2)
    data = _phantom_dataset(2, ReferenceDims(16, 16))
    children = []

    def log(epoch, loss):
        children.append(len(multiprocessing.active_children()))
        if epoch == 1:
            raise RuntimeError("log failed")

    train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=1, seed=1), log_fn=log)
    assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="log failed"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=2, seed=1), log_fn=log)
    assert multiprocessing.active_children() == []
    assert children == [2, 2, 2]


@pytest.mark.skipif(not Path("/proc/self/environ").is_file(), reason="reads /proc/<pid>/environ")
def test_workers_run_at_one_blas_thread_and_the_environment_is_left_as_it_was(monkeypatch):
    _use_cores(monkeypatch, 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    started_with = []

    def log(epoch, loss):
        # a process's initial environment, where the system shows it
        for proc in multiprocessing.active_children():
            environ = Path(f"/proc/{proc.pid}/environ").read_bytes().split(b"\0")
            started_with.append(sorted(v for v in environ if b"_NUM_THREADS=" in v))

    data = _phantom_dataset(2, ReferenceDims(16, 16))
    train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=1, seed=1), log_fn=log)
    assert dict(os.environ) == before
    assert started_with == [[b"OMP_NUM_THREADS=1", b"OPENBLAS_NUM_THREADS=1"]] * 2


def _kill_training_workers(epoch, loss):
    for proc in multiprocessing.active_children():
        proc.kill()


def test_a_training_worker_that_dies_stops_train_naming_the_batch(monkeypatch):
    _use_cores(monkeypatch, 2)
    data = _phantom_dataset(2, ReferenceDims(16, 16))
    with pytest.raises(OctCystError, match=r"^epoch 1, batch 0: training worker exited with code -9$"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=3, seed=1),
              log_fn=_kill_training_workers)
    assert multiprocessing.active_children() == []


def test_ctrl_c_reaches_only_the_parent(tmp_path, monkeypatch):
    # the terminal sends SIGINT to every process of its foreground group;
    # the workers ignore it and train on
    data = _phantom_dataset(3, ReferenceDims(16, 16))
    cfg = TrainConfig(batch_size=2, epochs=3, seed=11)

    def interrupt_workers(epoch, loss):
        if epoch == 0:
            for proc in multiprocessing.active_children():
                os.kill(proc.pid, signal.SIGINT)

    for cores in (1, 2):
        _use_cores(monkeypatch, cores)
        cp = train(data, _tiny_cfg(), cfg, log_fn=interrupt_workers)
        save_checkpoint(cp, tmp_path / f"cores{cores}.bin")
    assert multiprocessing.active_children() == []
    assert (tmp_path / "cores1.bin").read_bytes() == (tmp_path / "cores2.bin").read_bytes()


def test_stop_workers_kills_a_busy_worker_at_once():
    ctx = multiprocessing.get_context("spawn")
    conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=time.sleep, args=(60,), daemon=True)
    proc.start()
    child_conn.close()
    started = time.monotonic()
    trainer_mod._stop_workers([(proc, conn)])
    assert time.monotonic() - started < 5.0
    assert not proc.is_alive() and proc.exitcode == -signal.SIGKILL


def test_a_non_finite_loss_computed_by_a_worker_stops_train(monkeypatch):
    _use_cores(monkeypatch, 2)
    data = _phantom_dataset(2, ReferenceDims(16, 16))
    sample, target = data[1]
    values = sample.values.copy()
    values[0, 8, 8] = np.nan
    data[1] = (Sample(values, sample.orig_dims), target)
    batches = _count_worker_batches(monkeypatch)
    with pytest.raises(OctCystError, match=r"^epoch 0, batch 0: non-finite training loss$"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=2, seed=1))
    assert batches == [2]
    assert multiprocessing.active_children() == []


def test_an_error_in_a_worker_is_raised_with_its_text(monkeypatch):
    _use_cores(monkeypatch, 2)
    data = _phantom_dataset(2, ReferenceDims(16, 16))
    data[1] = (data[1][0], np.zeros((24, 24), dtype=np.float32))
    batches = _count_worker_batches(monkeypatch)
    with pytest.raises(OctCystError, match=r"^logits \(1, 16, 16\) vs target \(1, 24, 24\)$"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=1, seed=1))
    data[1] = (data[1][0], None)
    with pytest.raises(OctCystError, match=r"^TypeError: 'NoneType' object is not subscriptable$"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=1, seed=1))
    assert batches == [2, 2]
    assert multiprocessing.active_children() == []


# A tiny training set and config whose batches of 2 go to training workers.
_WORKER_CONFIG = """\
ref_rows = 32
ref_cols = 32
base_channels = 2
depth = 2
aspp_rates = 1,2
dropout = 0.1,0.1,0.2
batch_size = 2
epochs = 3
seed = 3
"""


def _prepared_set(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_WORKER_CONFIG)
    data, prep = tmp_path / "data", tmp_path / "prep"
    assert run(["phantom", "--count", "3", "--seed", "5", "--rows", "32", "--cols", "32",
                "--n-cysts", "2", "--axis-min", "1", "--axis-max", "2", "--out", str(data)]) == 0
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", str(cfg),
                "--out", str(prep)]) == 0
    return str(prep), str(cfg)


def _cli_env():
    return dict(os.environ, PYTHONPATH=str(Path(octcyst.__file__).resolve().parents[1]))


def test_cli_train_with_workers_writes_the_in_process_checkpoint(tmp_path, monkeypatch):
    # spawned workers re-import the parent's main module, octcyst.cli here
    if trainer_mod._core_count() < 2:
        pytest.skip("training workers need two usable cores")
    prep, cfg = _prepared_set(tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "octcyst.cli", "train", "--samples", prep, "--config", cfg,
         "--out", str(tmp_path / "workers")],
        env=_cli_env(), capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    _use_cores(monkeypatch, 1)
    assert run(["train", "--samples", prep, "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
    assert (tmp_path / "workers" / "checkpoint.bin").read_bytes() == (
        tmp_path / "serial" / "checkpoint.bin"
    ).read_bytes()


# `octcyst train` with 2 training workers that are killed after epoch 0.
_KILLED_WORKERS_CLI_SCRIPT = """
import multiprocessing
import sys
import octcyst.cli
import octcyst.trainer


def train(data, unet_cfg, train_cfg, log_fn):
    def log_and_kill(epoch, loss):
        log_fn(epoch, loss)
        for proc in multiprocessing.active_children():
            proc.kill()

    return octcyst.trainer.train(data, unet_cfg, train_cfg, log_fn=log_and_kill)


octcyst.trainer._core_count = lambda: 2
octcyst.cli.train = train
sys.exit(octcyst.cli.run(sys.argv[1:]))
"""


def test_cli_exits_1_without_a_traceback_when_a_training_worker_dies(tmp_path):
    prep, cfg = _prepared_set(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_WORKERS_CLI_SCRIPT, "train", "--samples", prep,
         "--config", cfg, "--out", str(tmp_path / "model")],
        env=_cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr == "octcyst: error: epoch 1, batch 0: training worker exited with code -9\n"
    assert not (tmp_path / "model" / "checkpoint.bin").exists()


# --- predict --------------------------------------------------------------------


def _zero_checkpoint(cfg):
    _, store = build_unet(cfg)
    return Checkpoint(cfg, np.zeros_like(store.values()))


def test_predict_zero_weights_mask_equals_roi():
    ref = ReferenceDims(24, 24)
    spec = PhantomSpec(rows=16, cols=16, ilm_row=2, ism_row=11, n_cysts=1,
                       cyst_axis_range=(1, 2), seed=77)
    img, _, _, _ = gen_phantom(spec)
    sample = prepare_sample(img, ref)
    cp = _zero_checkpoint(_tiny_cfg())
    prob, mask = predict(cp, sample)
    assert prob.shape == (16, 16) and mask.shape == (16, 16)
    assert np.all(prob == 0.5)  # p = sigmoid(0), thresholded with >= rule
    from octcyst.samplekit import crop_from_reference

    roi = crop_from_reference(sample.roi_channel, sample.offset, sample.orig_dims)
    assert np.array_equal(mask, (roi != 0).astype(np.uint8))


def test_predict_mask_subset_of_roi():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(1, ref, seed0=90)
    cp = train(data, _tiny_cfg(), TrainConfig(batch_size=1, epochs=3, seed=2))
    sample = data[0][0]
    _, mask = predict(cp, sample)
    from octcyst.samplekit import crop_from_reference

    roi = crop_from_reference(sample.roi_channel, sample.offset, sample.orig_dims)
    assert not np.any(mask & (roi == 0))


def test_predict_dim_mismatch():
    sample = Sample(np.zeros((2, 18, 18), dtype=np.float32), (18, 18))
    with pytest.raises(OctCystError, match="spatial dims 18x18 not divisible by 4"):
        predict(_zero_checkpoint(_tiny_cfg()), sample)


def test_predict_builds_the_network_once_per_checkpoint(tmp_path, monkeypatch):
    import octcyst.trainer as trainer_mod

    calls = []

    def counting_unet(cfg, store):
        calls.append(cfg)
        return UNet(cfg, store)

    monkeypatch.setattr(trainer_mod, "UNet", counting_unet)
    cfg = _tiny_cfg(seed=8)
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    cp = load_checkpoint(tmp_path / "cp.bin")
    sample = Sample(np.zeros((2, 16, 16), dtype=np.float32), (16, 16))
    probs = [predict(cp, sample)[0] for _ in range(3)]
    assert len(calls) == 1
    assert all(np.array_equal(p, probs[0]) for p in probs)


# --- checkpoint I/O ---------------------------------------------------------------


def test_checkpoint_round_trip_forward_bitwise(tmp_path):
    cfg = _tiny_cfg(seed=21)
    net, store = build_unet(cfg)
    cp = Checkpoint(cfg, store.values())
    save_checkpoint(cp, tmp_path / "cp.bin")
    loaded = load_checkpoint(tmp_path / "cp.bin")

    x = np.random.default_rng(4).random((2, 8, 8)).astype(np.float32)
    a = net.forward(x).data
    b = loaded.network.forward(x).data
    assert np.array_equal(a, b)


def test_checkpoints_compare_by_identity():
    cp = _zero_checkpoint(_tiny_cfg())
    other = Checkpoint(cp.config, cp.values.copy())
    assert cp == cp and cp != other
    assert cp in {cp} and other not in {cp}


def test_checkpoint_same_seed_identical_bytes(tmp_path):
    cfg = _tiny_cfg(seed=33)
    _, s1 = build_unet(cfg)
    _, s2 = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, s1.values()), tmp_path / "a.bin")
    save_checkpoint(Checkpoint(cfg, s2.values()), tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_holds_the_config_and_then_only_the_values(tmp_path):
    cfg = _tiny_cfg(seed=6)
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    block = format_settings(cfg).encode("utf-8")
    values = b"".join(np.asarray(t.data, dtype="<f4").tobytes() for _, t in store.items())
    assert (tmp_path / "cp.bin").read_bytes() == (
        CHECKPOINT_MAGIC + struct.pack("<II", 2, len(block)) + block + values
    )


def test_checkpoint_version_1_rejected(tmp_path):
    from octcyst.cli import run

    # version 1 stored a tensor table: a count, then per tensor its name, rank and dims
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    block = format_settings(cfg).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", 1, len(block)), block]
    parts.append(struct.pack("<I", len(store.items())))
    for name, t in store.items():
        parts.append(struct.pack("<H", len(name)) + name.encode("utf-8"))
        parts.append(struct.pack(f"<B{t.data.ndim}I", t.data.ndim, *t.data.shape))
        parts.append(np.asarray(t.data, dtype="<f4").tobytes())
    p = tmp_path / "v1.bin"
    p.write_bytes(b"".join(parts))
    with pytest.raises(OctCystError, match="checkpoint version 1 unsupported"):
        load_checkpoint(p)
    assert run(["predict", "--checkpoint", str(p), "--samples", str(tmp_path),
                "--out", str(tmp_path / "pred")]) == 1


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(OctCystError, match="not a checkpoint file"):
        load_checkpoint(p)


def test_loaded_network_runs_the_checkpoints_own_arrays(tmp_path):
    cfg = _tiny_cfg(seed=9)
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    cp = load_checkpoint(tmp_path / "cp.bin")
    params = cp.network.store.items()
    assert [n for n, _ in params] == sorted(n for n, _, _ in param_layout(cfg))
    for name, t in params:
        assert t.data.base is cp.values, name
        assert t.data.dtype == np.float32 and not t.requires_grad
    assert b"".join(t.data.tobytes() for _, t in params) == cp.values.tobytes()


def test_checkpoint_cut_short_is_rejected_before_any_value_is_allocated(tmp_path):
    # the production network holds 1.3 M values, about 5 MiB of float32
    cfg = UNetConfig(seed=1)
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    (tmp_path / "cut.bin").write_bytes((tmp_path / "cp.bin").read_bytes()[:400])
    tracemalloc.start()
    try:
        with pytest.raises(OctCystError, match="truncated at byte 400"):
            load_checkpoint(tmp_path / "cut.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_checkpoint_truncated(tmp_path):
    # the smallest network keeps a cut at every byte offset quick
    cfg = UNetConfig(
        input_channels=2, base_channels=1, depth=1, bottleneck_channels=2,
        aspp_rates=(1,), dropout_per_level=(0.1, 0.1), seed=5,
    )
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = (tmp_path / "cp.bin").read_bytes()
    for cut in range(len(data)):
        (tmp_path / "cut.bin").write_bytes(data[:cut])
        message = "not a checkpoint file" if cut < 4 else "truncated at byte"
        with pytest.raises(OctCystError, match=message):
            load_checkpoint(tmp_path / "cut.bin")


def _write_values_by_hand(path, cfg, values):
    """A checkpoint file of `cfg`'s header and these float32 values, which
    save_checkpoint refuses to write unless they are exactly cfg's."""
    block = format_settings(cfg).encode("utf-8")
    header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(block)) + block
    path.write_bytes(header + np.asarray(values, dtype="<f4").tobytes())


def test_checkpoint_missing_tensor_rejected(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    # head.w is the last name, so its values end the array
    values = store.values()[: -store["head.w"].data.size]
    _write_values_by_hand(tmp_path / "cp.bin", cfg, values)
    with pytest.raises(OctCystError, match="truncated at byte"):
        load_checkpoint(tmp_path / "cp.bin")


def test_checkpoint_wrong_tensor_shape_rejected(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    # head.b holds one zero; give it two
    values = np.insert(store.values(), _flat_index(store, "head.b", 0), np.float32(0.0))
    _write_values_by_hand(tmp_path / "cp.bin", cfg, values)
    with pytest.raises(OctCystError, match="4 trailing bytes"):
        load_checkpoint(tmp_path / "cp.bin")


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = (tmp_path / "cp.bin").read_bytes()
    (tmp_path / "long.bin").write_bytes(data + bytes(4))
    with pytest.raises(OctCystError, match="4 trailing bytes"):
        load_checkpoint(tmp_path / "long.bin")


def _flat_index(store, name, k):
    """Where value k of tensor `name` sits among all values in name order;
    a negative k counts from the tensor's end."""
    start = sum(t.data.size for n, t in store.items() if n < name)
    return start + k % store[name].data.size


# Where a bad value goes: the first value of the first tensor, the last of
# that tensor (followed by the second), and head.b, which holds one value
# and is followed by head.w.  Each case must name its own tensor.
_BAD_POSITIONS = {
    "first-value": (_TINY_NAMES[0], 0),
    "last-value": (_TINY_NAMES[0], -1),
    "head.b": ("head.b", 0),
}


@pytest.mark.parametrize(
    "value, position",
    [(v, position) for position in _BAD_POSITIONS for v in (np.nan, np.inf, -np.inf)],
    ids=[
        i if position == "head.b" else f"{i}-{position}"
        for position in _BAD_POSITIONS
        for i in ("nan", "inf", "-inf")
    ],
)
def test_checkpoint_non_finite_value_rejected_on_load(tmp_path, value, position):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = bytearray((tmp_path / "cp.bin").read_bytes())
    name, k = _BAD_POSITIONS[position]
    at = 12 + struct.unpack_from("<I", data, 8)[0] + 4 * _flat_index(store, name, k)
    data[at : at + 4] = np.full(1, value, dtype="<f4").tobytes()
    (tmp_path / "bad.bin").write_bytes(bytes(data))
    with pytest.raises(OctCystError, match=rf"tensor {re.escape(name)} contains non-finite values"):
        load_checkpoint(tmp_path / "bad.bin")


@pytest.mark.parametrize("position", list(_BAD_POSITIONS))
def test_save_checkpoint_non_finite_value_raises_and_writes_nothing(tmp_path, position):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    values = store.values()
    name, k = _BAD_POSITIONS[position]
    values[_flat_index(store, name, k)] = np.inf
    with pytest.raises(OctCystError, match=rf"tensor {re.escape(name)} contains non-finite values"):
        save_checkpoint(Checkpoint(cfg, values), tmp_path / "cp.bin")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "edit",
    [lambda v: v[:-3], lambda v: np.append(v, np.float32(np.inf)), lambda v: v.reshape(1, -1)],
    ids=["short", "long-with-inf", "two-dimensional"],
)
def test_save_checkpoint_refuses_values_its_config_does_not_lay_out(tmp_path, edit):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    values = edit(store.values())
    shape = re.escape(str(values.shape))
    message = rf"cp\.bin: values of shape {shape} where the config lays out {store.flat.size}$"
    with pytest.raises(OctCystError, match=message):
        save_checkpoint(Checkpoint(cfg, values), tmp_path / "cp.bin")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_config_mismatch(tmp_path):
    garbage = b"not_a_key_value_line_without_equals"
    blob = b"UNCK" + struct.pack("<II", CHECKPOINT_VERSION, len(garbage)) + garbage
    p = tmp_path / "bad.bin"
    p.write_bytes(blob)
    with pytest.raises(OctCystError, match="bad checkpoint config: .*expected name = value") as err:
        load_checkpoint(p)
    assert not isinstance(err.value, InvalidConfig)  # a bad input file exits 1, not 2


def test_checkpoint_config_block_is_the_settings_text():
    # the exact text checkpoints have always carried; numpy scalars write as plain numbers
    cfg = UNetConfig(
        input_channels=2, base_channels=4, depth=3, bottleneck_channels=32,
        aspp_rates=(np.int64(1), 2, 4), dropout_per_level=(np.float64(0.1), 0.1, 0.2, 0.25),
        seed=7,
    )
    assert format_settings(cfg) == (
        "input_channels=2\n"
        "base_channels=4\n"
        "depth=3\n"
        "bottleneck_channels=32\n"
        "aspp_rates=1,2,4\n"
        "dropout_per_level=0.1,0.1,0.2,0.25\n"
        "seed=7\n"
    )


def _with_config_block(tmp_path, edit):
    """A saved tiny checkpoint whose config block is replaced by edit(block)."""
    cfg = _tiny_cfg(seed=3)
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = (tmp_path / "cp.bin").read_bytes()
    n = struct.unpack_from("<I", data, 8)[0]
    block = edit(data[12 : 12 + n])
    p = tmp_path / "edited.bin"
    p.write_bytes(data[:8] + struct.pack("<I", len(block)) + block + data[12 + n :])
    return p


def test_checkpoint_config_block_edit_helper_keeps_a_valid_checkpoint(tmp_path):
    p = _with_config_block(tmp_path, lambda block: block)
    assert load_checkpoint(p).config == _tiny_cfg(seed=3)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda block: block + b"bogus=1\n", "unknown key 'bogus'"),
        (lambda block: block + b"seed=99\n", "seed set twice"),
        (lambda block: block.replace(b"seed=3", b"seed=\xff"), "utf-8"),
    ],
    ids=["unknown-key", "repeated-key", "not-utf8"],
)
def test_checkpoint_config_block_rejected(tmp_path, edit, message):
    with pytest.raises(OctCystError, match=message) as err:
        load_checkpoint(_with_config_block(tmp_path, edit))
    assert not isinstance(err.value, InvalidConfig)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda block: block.replace(b"seed=3", "seed=\u0663".encode()), "bad value for seed"),
        (lambda block: block.replace(b"depth=2", b"depth=+2"), "bad value for depth"),
        (lambda block: block.replace(b"base_channels=2", b"base_channels=0_2"),
         "bad value for base_channels"),
        (lambda block: b"# saved by hand\n" + block, "is not the canonical text"),
        (lambda block: b"\n" + block.replace(b"\n", b"\n\n"), "is not the canonical text"),
        (lambda block: block.replace(b"seed=3", b"seed = 3"), "is not the canonical text"),
        (lambda block: block.replace(b"seed=3\n", b""), "is not the canonical text"),
        (lambda block: block.replace(b"depth=2\n", b""),
         "bad checkpoint config: bottleneck_channels must equal"),
    ],
    ids=["arabic-indic-digit", "sign", "underscore", "comment", "blank-lines", "spaces",
         "missing-seed", "missing-depth"],
)
def test_checkpoint_config_block_must_be_the_text_save_checkpoint_writes(tmp_path, edit, message):
    # save_checkpoint never writes any of these: a number spelling the codec
    # does not read is a bad value, the layouts parse to the same config, and
    # a missing key takes its default, which either makes the config invalid
    # or writes a line the block lacks
    with pytest.raises(OctCystError, match=message) as err:
        load_checkpoint(_with_config_block(tmp_path, edit))
    assert not isinstance(err.value, InvalidConfig)


def test_save_checkpoint_refuses_a_config_that_would_not_read_back(tmp_path):
    # an int dropout rate writes as "0" but reads back as 0.0, which writes as "0.0"
    cfg = replace(_tiny_cfg(), dropout_per_level=(0, 0.1, 0.2))
    _, store = build_unet(cfg)
    with pytest.raises(OctCystError, match="is not the canonical text"):
        save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_config_failing_validate_is_a_config_mismatch(tmp_path):
    from octcyst.cli import run

    # bottleneck_channels must be base_channels * 2^depth = 8
    p = _with_config_block(
        tmp_path, lambda block: block.replace(b"bottleneck_channels=8", b"bottleneck_channels=9")
    )
    with pytest.raises(OctCystError, match="bad checkpoint config: bottleneck_channels") as err:
        load_checkpoint(p)
    assert not isinstance(err.value, InvalidConfig)
    out = tmp_path / "pred"
    assert run(["predict", "--checkpoint", str(p), "--samples", str(tmp_path),
                "--out", str(out)]) == 1
