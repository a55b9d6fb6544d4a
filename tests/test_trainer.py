import math

import numpy as np
import pytest

from octcyst.dataio import PhantomSpec, gen_phantom
from octcyst.errors import (
    BadMagic,
    ConfigMismatch,
    DimMismatch,
    EmptyDataset,
    NonFiniteValue,
    ShapeMismatch,
    StateShapeMismatch,
    TruncatedData,
)
from octcyst.samplekit import ReferenceDims, Sample, pad_to_reference, prepare_sample
from octcyst.tensornet import ParamStore, Tensor, UNetConfig, backward, build_unet, no_grad
from octcyst.trainer import (
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
    with pytest.raises(ShapeMismatch):
        bce_loss(Tensor(np.full((2, 2), 0.5)), np.zeros((2, 3)))


def test_bce_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.random((4, 4))
        target = (rng.random((4, 4)) > 0.5).astype(float)
        assert bce_loss(Tensor(pred), target).item() >= 0.0


# --- Adam ---------------------------------------------------------------------


def _scalar_store(value=0.0):
    store = ParamStore()
    store.add("theta", Tensor(np.array([value], dtype=np.float64)))
    return store


def test_adam_zero_gradient_is_identity():
    store = _scalar_store(1.5)
    store.zero_grad()
    state = AdamState.for_params(store)
    cfg = TrainConfig(epochs=1)
    adam_step(store, state, cfg)
    assert store["theta"].data[0] == 1.5
    assert state.t == 1


def test_adam_first_step_magnitude():
    store = _scalar_store(0.0)
    store.zero_grad()
    store["theta"].grad[0] = 1.0
    state = AdamState.for_params(store)
    adam_step(store, state, TrainConfig(epochs=1, learning_rate=1e-3))
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert abs(store["theta"].data[0] - expected) <= 1e-9
    assert abs(abs(store["theta"].data[0]) - 1e-3) <= 1e-9


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

    store = _scalar_store(0.3)
    state = AdamState.for_params(store)
    cfg = TrainConfig(epochs=1, learning_rate=lr)
    got = []
    for g in grads:
        store.zero_grad()
        store["theta"].grad[0] = g
        adam_step(store, state, cfg)
        got.append(float(store["theta"].data[0]))
    assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-12


def test_adam_state_shape_mismatch():
    store = _scalar_store()
    store.zero_grad()
    state = AdamState()  # missing entries
    with pytest.raises(StateShapeMismatch):
        adam_step(store, state, TrainConfig(epochs=1))


# --- training loop --------------------------------------------------------------


def _phantom_dataset(n, ref, seed0=50):
    data = []
    for i in range(n):
        spec = PhantomSpec(
            rows=16, cols=16, ilm_row=3, ism_row=12, n_cysts=1,
            cyst_axis_range=(1, 2), dark_rows_above_ism=2,
            bright_rows_below_ism=2, seed=seed0 + i,
        )
        img, mask, _, _ = gen_phantom(spec)
        sample = prepare_sample(img, ref)
        target, _ = pad_to_reference(mask.astype(np.float32), ref)
        data.append((sample, target))
    return data


def test_train_empty_dataset():
    with pytest.raises(EmptyDataset):
        train([], _tiny_cfg(), TrainConfig(epochs=1))


def test_train_dim_mismatch():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(1, ref)
    bad = Sample(np.zeros((2, 24, 24), dtype=np.float32), (0, 0), (24, 24))
    with pytest.raises(DimMismatch):
        train(data + [(bad, np.zeros((24, 24), dtype=np.float32))], _tiny_cfg(), TrainConfig(epochs=1))


def test_train_loss_decreases_on_single_sample():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(1, ref)
    losses = []
    train(
        data,
        _tiny_cfg(),
        TrainConfig(batch_size=1, epochs=100, learning_rate=1e-3, seed=3),
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


def test_train_stops_on_non_finite_loss():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(2, ref)
    sample, target = data[1]
    values = sample.values.copy()
    values[0, 8, 8] = np.nan
    data[1] = (Sample(values, sample.offset, sample.orig_dims), target)
    with pytest.raises(NonFiniteValue, match=r"epoch 0, batch [01]: non-finite"):
        train(data, _tiny_cfg(), TrainConfig(batch_size=1, epochs=2, seed=1))


def test_train_epoch_log_order():
    ref = ReferenceDims(16, 16)
    data = _phantom_dataset(2, ref)
    epochs = []
    train(data, _tiny_cfg(), TrainConfig(batch_size=2, epochs=3, seed=1),
          log_fn=lambda e, l: epochs.append(e))
    assert epochs == [0, 1, 2]


# --- predict --------------------------------------------------------------------


def _zero_checkpoint(cfg):
    _, store = build_unet(cfg)
    return Checkpoint(cfg, {n: np.zeros_like(t.data) for n, t in store.items()})


def test_predict_zero_weights_mask_equals_roi():
    ref = ReferenceDims(24, 24)
    spec = PhantomSpec(rows=16, cols=16, ilm_row=3, ism_row=12, n_cysts=1,
                       cyst_axis_range=(1, 2), dark_rows_above_ism=2,
                       bright_rows_below_ism=2, seed=77)
    img, _, _, _ = gen_phantom(spec)
    sample = prepare_sample(img, ref)
    cp = _zero_checkpoint(_tiny_cfg())
    prob, mask = predict(cp, sample, threshold=0.5, roi_clamp=True)
    assert prob.shape == (16, 16) and mask.shape == (16, 16)
    assert np.all(prob == 0.5)  # p = sigmoid(0), thresholded with >= rule
    from octcyst.samplekit import crop_from_reference

    roi = crop_from_reference(sample.roi_channel, sample.offset, sample.orig_dims)
    assert np.array_equal(mask, (roi != 0).astype(np.uint8))


def test_predict_without_roi_clamp_fills_frame():
    ref = ReferenceDims(16, 16)
    sample = Sample(np.zeros((2, 16, 16), dtype=np.float32), (0, 0), (16, 16))
    prob, mask = predict(_zero_checkpoint(_tiny_cfg()), sample, roi_clamp=False)
    assert np.all(mask == 1)  # 0.5 >= 0.5


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
    sample = Sample(np.zeros((2, 18, 18), dtype=np.float32), (0, 0), (18, 18))
    with pytest.raises(DimMismatch):
        predict(_zero_checkpoint(_tiny_cfg()), sample)


def test_predict_builds_the_network_once_per_checkpoint(tmp_path, monkeypatch):
    import octcyst.trainer as trainer_mod

    calls = []

    def counting_build(cfg):
        calls.append(cfg)
        return build_unet(cfg)

    monkeypatch.setattr(trainer_mod, "build_unet", counting_build)
    cfg = _tiny_cfg(seed=8)
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    cp = load_checkpoint(tmp_path / "cp.bin")
    sample = Sample(np.zeros((2, 16, 16), dtype=np.float32), (0, 0), (16, 16))
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
    with no_grad():
        a = net.forward(x).data
    net2, store2 = build_unet(loaded.config)
    store2.set_values(loaded.values)
    with no_grad():
        b = net2.forward(x).data
    assert np.array_equal(a, b)


def test_checkpoint_same_seed_identical_bytes(tmp_path):
    cfg = _tiny_cfg(seed=33)
    _, s1 = build_unet(cfg)
    _, s2 = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, s1.values()), tmp_path / "a.bin")
    save_checkpoint(Checkpoint(cfg, s2.values()), tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_order_is_lexicographic(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    values = store.values()
    reversed_dict = dict(reversed(list(values.items())))
    save_checkpoint(Checkpoint(cfg, values), tmp_path / "a.bin")
    save_checkpoint(Checkpoint(cfg, reversed_dict), tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(BadMagic):
        load_checkpoint(p)


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
        with pytest.raises(BadMagic if cut < 4 else TruncatedData):
            load_checkpoint(tmp_path / "cut.bin")


def test_checkpoint_missing_tensor_rejected(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    values = store.values()
    del values["head.w"]
    save_checkpoint(Checkpoint(cfg, values), tmp_path / "cp.bin")
    with pytest.raises(ShapeMismatch, match="head.w"):
        load_checkpoint(tmp_path / "cp.bin")


def test_checkpoint_wrong_tensor_shape_rejected(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    values = store.values()
    values["head.b"] = np.zeros(2, dtype=np.float32)
    save_checkpoint(Checkpoint(cfg, values), tmp_path / "cp.bin")
    with pytest.raises(ShapeMismatch, match="head.b"):
        load_checkpoint(tmp_path / "cp.bin")


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = (tmp_path / "cp.bin").read_bytes()
    (tmp_path / "long.bin").write_bytes(data + bytes(4))
    with pytest.raises(ConfigMismatch, match="4 trailing bytes"):
        load_checkpoint(tmp_path / "long.bin")


def test_checkpoint_repeated_tensor_rejected(tmp_path):
    import struct

    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = bytearray((tmp_path / "cp.bin").read_bytes())
    # one more table entry that repeats head.b with another value
    count_at = 12 + struct.unpack_from("<I", data, 8)[0]
    struct.pack_into("<I", data, count_at, struct.unpack_from("<I", data, count_at)[0] + 1)
    data += struct.pack("<H", 6) + b"head.b" + struct.pack("<BI", 1, 1)
    data += np.full(1, 7.0, dtype="<f4").tobytes()
    (tmp_path / "dup.bin").write_bytes(bytes(data))
    with pytest.raises(ConfigMismatch, match="head.b"):
        load_checkpoint(tmp_path / "dup.bin")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_non_finite_value_rejected_on_load(tmp_path, value):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = bytearray((tmp_path / "cp.bin").read_bytes())
    # head.b is (1,): its name, rank 1, one u32 dim, then its one float32
    at = data.index(b"head.b") + 6 + 1 + 4
    data[at : at + 4] = np.full(1, value, dtype="<f4").tobytes()
    (tmp_path / "bad.bin").write_bytes(bytes(data))
    with pytest.raises(NonFiniteValue, match="head.b"):
        load_checkpoint(tmp_path / "bad.bin")


def test_save_checkpoint_non_finite_value_raises_and_writes_nothing(tmp_path):
    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    values = store.values()
    values["head.b"] = np.full(1, np.inf, dtype=np.float32)
    with pytest.raises(NonFiniteValue, match="head.b"):
        save_checkpoint(Checkpoint(cfg, values), tmp_path / "cp.bin")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_config_mismatch(tmp_path):
    import struct

    garbage = b"not_a_key_value_line_without_equals"
    blob = (
        b"UNCK"
        + struct.pack("<I", 1)
        + struct.pack("<I", len(garbage))
        + garbage
        + struct.pack("<I", 0)
    )
    p = tmp_path / "bad.bin"
    p.write_bytes(blob)
    with pytest.raises(ConfigMismatch):
        load_checkpoint(p)


def test_checkpoint_config_block_is_the_settings_text():
    # the exact text checkpoints have always carried; numpy scalars write as plain numbers
    from octcyst.dataio.formats import format_settings

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
    import struct

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
        (lambda block: block.replace(b"depth=2\n", b""), "lacks depth"),
        (lambda block: block.replace(b"seed=3", b"seed=\xff"), "utf-8"),
    ],
    ids=["unknown-key", "repeated-key", "missing-key", "not-utf8"],
)
def test_checkpoint_config_block_rejected(tmp_path, edit, message):
    with pytest.raises(ConfigMismatch, match=message):
        load_checkpoint(_with_config_block(tmp_path, edit))


def test_checkpoint_tensor_name_not_utf8_rejected(tmp_path):
    import struct

    cfg = _tiny_cfg()
    _, store = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, store.values()), tmp_path / "cp.bin")
    data = bytearray((tmp_path / "cp.bin").read_bytes())
    first_name_at = 12 + struct.unpack_from("<I", data, 8)[0] + 4 + 2
    data[first_name_at] = 0xFF
    (tmp_path / "bad.bin").write_bytes(bytes(data))
    with pytest.raises(ConfigMismatch, match="tensor name is not UTF-8"):
        load_checkpoint(tmp_path / "bad.bin")


def test_checkpoint_config_failing_validate_is_a_config_mismatch(tmp_path):
    from octcyst.cli import run

    # bottleneck_channels must be base_channels * 2^depth = 8
    p = _with_config_block(
        tmp_path, lambda block: block.replace(b"bottleneck_channels=8", b"bottleneck_channels=9")
    )
    with pytest.raises(ConfigMismatch, match="bottleneck_channels"):
        load_checkpoint(p)
    out = tmp_path / "pred"
    assert run(["predict", "--checkpoint", str(p), "--samples", str(tmp_path),
                "--out", str(out)]) == 1
