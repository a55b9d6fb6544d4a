"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the end-to-end run (criterion 9) takes about a minute.
"""

import math
import time

import numpy as np

from fdcheck import max_rel_error_fd
from octcyst.dataio import PhantomSpec, gen_phantom
from octcyst.metrics import aggregate_stats, score_pair
from octcyst.preprocess import (
    bilateral_filter,
    estimate_sigma_r,
)
from octcyst.retinagraph import W_MIN, segment_layers, shortest_layer_path
from octcyst.rng import SplitMix64, derive_seed
from octcyst.samplekit import (
    ReferenceDims,
    Sample,
    crop_from_reference,
    pad_to_reference,
    prepare_sample,
)
from octcyst.tensornet import (
    Tensor,
    UNetConfig,
    attention_gate,
    backward,
    build_unet,
    conv2d,
)
from octcyst.trainer import (
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

from test_preprocess import naive_bilateral
from test_retinagraph import dp_tiebreak_path, enumerate_min_cost, path_cost


def _report(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    cfg = UNetConfig(
        input_channels=2, base_channels=2, depth=2, bottleneck_channels=8,
        aspp_rates=(1, 2, 4, 8, 16), dropout_per_level=(0.1, 0.1, 0.2), seed=3,
    )
    net, params = build_unet(cfg, dtype=np.float64)
    x = np.random.default_rng(0).random((2, 16, 16))
    target = (np.random.default_rng(1).random((1, 16, 16)) > 0.8).astype(float)

    def loss_fn():
        return bce_loss(net.forward(x), target).item()

    backward(bce_loss(net.forward(x), target))
    worst = max_rel_error_fd(params, loss_fn, h=1e-5)
    elapsed = time.perf_counter() - t0
    n_params = sum(t.data.size for _, t in params.items())
    assert worst <= 1e-4
    assert elapsed < 120.0
    _report(1, f"all {n_params} parameter grads match central FD "
               f"(worst rel err {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_02_dijkstra_oracle():
    rng = np.random.default_rng(123)
    for _ in range(50):
        field = rng.random((6, 8))
        path = shortest_layer_path(field)
        cost = path_cost(field, path)
        assert abs(cost - enumerate_min_cost(field, W_MIN)) <= 1e-12
        oracle_path, _ = dp_tiebreak_path(field, W_MIN)
        assert np.array_equal(path, oracle_path)
    _report(2, "50 random 6x8 fields: cost equals exhaustive enumeration "
               "within 1e-12, exact path match under the tie-break")


def test_criterion_03_bilateral_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        out = bilateral_filter(img, 2.0, 25.0, 4).astype(np.float64)
        oracle = naive_bilateral(img, 2.0, 25.0, 4)
        worst = max(worst, float(np.max(np.abs(out - oracle))))
    assert worst <= 0.5
    _report(3, f"20 random 16x16 images: filter matches direct per-pixel "
               f"evaluation within 0.5 intensity (worst {worst:.3f})")


def test_criterion_04_dilated_conv_equivalence():
    rng = np.random.default_rng(9)
    worst = 0.0
    for r in (2, 4, 8, 16):
        x = rng.random((3, 40, 40)) * 2 - 1
        w = rng.random((2, 3, 3, 3)) * 2 - 1
        b = rng.random(2) * 2 - 1
        inflated = np.zeros((2, 3, 2 * r + 1, 2 * r + 1))
        inflated[:, :, ::r, ::r] = w
        a = conv2d(Tensor(x), Tensor(w), Tensor(b), dilation=r).data
        bb = conv2d(Tensor(x), Tensor(inflated), Tensor(b), dilation=1).data
        worst = max(worst, float(np.max(np.abs(a - bb))))
    assert worst <= 1e-6
    _report(4, f"conv at rates 2,4,8,16 equals zero-inflated standard conv "
               f"(worst elementwise diff {worst:.2e})")


def test_criterion_05_metric_exactness():
    pred = np.zeros((4, 4), dtype=np.uint8)
    gt = np.zeros((4, 4), dtype=np.uint8)
    pred[0, 0] = pred[0, 1] = pred[1, 0] = 1
    gt[0, 0] = gt[0, 1] = gt[1, 1] = gt[2, 2] = gt[3, 3] = 1
    counts, recall, precision, dice = score_pair(pred, gt)
    assert (counts.tp, counts.fp, counts.fn) == (2, 1, 3)
    assert recall == 2 / 5 and precision == 2 / 3 and dice == 0.5

    rng = np.random.default_rng(11)
    for _ in range(1000):
        density = rng.random()
        a = (rng.random((6, 6)) > density).astype(np.uint8)
        b = (rng.random((6, 6)) > density).astype(np.uint8)
        dab = score_pair(a, b)[3]
        dba = score_pair(b, a)[3]
        assert dab == dba
        if not a.any() and not b.any():
            assert dab == 1.0
    _report(5, "hand-counted 4x4 fixture exact; dice symmetric and both-empty "
               "convention holds on 1000 random pairs")


def test_criterion_06_round_trips(tmp_path):
    rng = np.random.default_rng(13)
    for _ in range(20):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        img = rng.random((rows, cols)).astype(np.float32)
        padded, offset = pad_to_reference(img, ReferenceDims(32, 32))
        assert np.array_equal(crop_from_reference(padded, offset, (rows, cols)), img)

    cfg = UNetConfig(
        input_channels=2, base_channels=2, depth=2, bottleneck_channels=8,
        aspp_rates=(1, 2), dropout_per_level=(0.1, 0.1, 0.2), seed=41,
    )
    _, s1 = build_unet(cfg)
    _, s2 = build_unet(cfg)
    save_checkpoint(Checkpoint(cfg, s1.values()), tmp_path / "a.bin")
    save_checkpoint(Checkpoint(cfg, s2.values()), tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    loaded = load_checkpoint(tmp_path / "a.bin")
    assert np.array_equal(loaded.values, s1.values())
    save_checkpoint(loaded, tmp_path / "c.bin")
    assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()
    _report(6, "pad/crop and checkpoint round trips bitwise exact; "
               "identical seeds give identical checkpoint bytes")


def test_criterion_07_attention_gate_range():
    # parameters at He-init scale: float64 sigmoid saturates to exactly 1.0
    # for logits > ~36.7, so the open-interval property is only observable
    # at realistic weight magnitudes
    rng = np.random.default_rng(17)
    for i in range(100):
        c = int(rng.integers(1, 5))
        f_int = max(1, c // 2)
        x = Tensor(rng.standard_normal((c, 4, 4)) * 3)
        g = Tensor(rng.standard_normal((c, 4, 4)) * 3)
        p = dict(
            w_x=Tensor(rng.standard_normal((f_int, c, 1, 1)) / math.sqrt(c)),
            w_g=Tensor(rng.standard_normal((f_int, c, 1, 1)) / math.sqrt(c)),
            b_xg=Tensor(rng.standard_normal(f_int) * 0.1),
            psi=Tensor(rng.standard_normal((1, f_int, 1, 1)) / math.sqrt(f_int)),
            b_psi=Tensor(rng.standard_normal(1) * 0.1),
        )
        alpha = attention_gate(x, g, **p).data
        assert alpha.shape == (1, 4, 4)
        assert alpha.min() > 0.0 and alpha.max() < 1.0

    x = Tensor(rng.standard_normal((4, 5, 5)))
    g = Tensor(rng.standard_normal((4, 5, 5)))
    p = dict(
        w_x=Tensor(rng.standard_normal((2, 4, 1, 1))),
        w_g=Tensor(rng.standard_normal((2, 4, 1, 1))),
        b_xg=Tensor(rng.standard_normal(2)),
        psi=Tensor(np.zeros((1, 2, 1, 1))),
        b_psi=Tensor(np.zeros(1)),
    )
    assert np.array_equal(attention_gate(x, g, **p).data, np.full((1, 5, 5), 0.5))
    _report(7, "attention coefficients strictly in (0,1) on 100 random inputs; "
               "psi=0 yields exactly 0.5")


def test_criterion_08_bce_and_adam_fixtures():
    target = (np.random.default_rng(0).random((8, 8)) > 0.5).astype(float)
    loss = bce_loss(Tensor(np.zeros((8, 8))), target)  # logit 0 is p = 0.5
    assert abs(loss.item() - math.log(2.0)) <= 1e-7

    theta = np.zeros(1, dtype=np.float64)
    state = AdamState.for_values(theta)
    adam_step(theta, np.array([1.0]), state)
    assert abs(abs(theta[0]) - LEARNING_RATE) <= 1e-9
    _report(8, "BCE at uniform p=0.5 equals ln 2 within 1e-7; "
               "Adam first-step magnitude equals lr within 1e-9")


def _desk_phantom(seed, i):
    layout = SplitMix64(derive_seed(seed, i))
    ilm = 8 + layout.below(8)
    ism = 44 + layout.below(6)
    spec = PhantomSpec(
        rows=64, cols=96, ilm_row=ilm, ism_row=ism,
        n_cysts=2 + layout.below(3), cyst_axis_range=(3, 7),
        speckle_sigma=0.06, seed=layout.state,
    )
    return spec, *gen_phantom(spec)


def test_criterion_09_end_to_end_desk_run():
    t0 = time.perf_counter()
    seed = 2026
    ref = ReferenceDims(64, 96)
    train_data, holdout = [], []
    for i in range(50):
        _, img, mask, _, _ = _desk_phantom(seed, i)
        sample = prepare_sample(img, ref)
        target, _ = pad_to_reference(mask.astype(np.float32), ref)
        (train_data if i < 40 else holdout).append((sample, target, mask))

    unet_cfg = UNetConfig(
        input_channels=2, base_channels=4, depth=3, bottleneck_channels=32,
        aspp_rates=(1, 2, 4), dropout_per_level=(0.1, 0.1, 0.2, 0.2), seed=seed,
    )
    train_cfg = TrainConfig(batch_size=5, epochs=60, seed=derive_seed(seed, 1))
    losses = []
    checkpoint = train(
        [(s, t) for s, t, _ in train_data], unet_cfg, train_cfg,
        log_fn=lambda e, l: losses.append(l),
    )
    assert losses[-1] < 0.25 * losses[0]

    dices = []
    # the network must use the ROI prior: zeroing that channel must cost
    # Dice, scored on the masks prob >= 0.5 because predict clamps its own
    # mask to the ROI
    prior_dices = {"as prepared": [], "zeroed": []}
    for sample, _, mask in holdout:
        _, pred_mask = predict(checkpoint, sample)
        dices.append(score_pair(pred_mask, mask)[3])
        no_prior = sample.values.copy()
        no_prior[1] = 0.0
        for key, s in (("as prepared", sample), ("zeroed", Sample(no_prior, sample.orig_dims))):
            prob, _ = predict(checkpoint, s)
            prior_dices[key].append(score_pair(prob >= 0.5, mask)[3])
    mean_dice, std_dice = aggregate_stats(dices)
    with_prior, without_prior = (float(np.mean(d)) for d in prior_dices.values())
    elapsed = time.perf_counter() - t0
    assert mean_dice >= 0.60
    assert with_prior - without_prior >= 0.3
    assert elapsed <= 15 * 60
    _report(9, f"40+10 phantom run: held-out mean Dice {mean_dice:.3f} "
               f"(std {std_dice:.3f}) >= 0.60, final loss "
               f"{losses[-1] / losses[0]:.1%} of initial; unclamped Dice "
               f"{with_prior:.3f} with the ROI channel, {without_prior:.3f} "
               f"with it zeroed; {elapsed:.0f}s")


def test_criterion_10_layer_segmentation_sanity():
    seed = 4040
    total_cols = 0
    good_ilm = 0
    good_ism = 0
    ordered = 0
    for i in range(50):
        spec, img, _, ilm_true, ism_true = _desk_phantom(seed, i)
        sigma_r = estimate_sigma_r(img)
        denoised = bilateral_filter(img, 2.0, sigma_r, 4)
        ilm, ism = segment_layers(denoised)
        total_cols += img.shape[1]
        good_ilm += int(np.sum(np.abs(ilm - ilm_true) <= 1))
        good_ism += int(np.sum(np.abs(ism - ism_true) <= 1))
        ordered += int(np.sum(ilm < ism))
    assert good_ilm / total_cols >= 0.95
    assert good_ism / total_cols >= 0.95
    assert ordered == total_cols
    _report(10, f"50 random phantoms: ILM within +-1 on "
                f"{good_ilm / total_cols:.1%}, ISM on {good_ism / total_cols:.1%} "
                f"of columns; ilm < ism on 100%")
