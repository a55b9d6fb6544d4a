import numpy as np
import pytest

from octcyst.errors import OctCystError
from octcyst.metrics import (
    aggregate_stats,
    evaluate_pairs,
    format_report,
    format_report_tsv,
    intersect_masks,
    score_pair,
)


def _fixture_masks():
    """4x4 masks with |pred|=3, |gt|=5, overlap 2."""
    pred = np.zeros((4, 4), dtype=np.uint8)
    gt = np.zeros((4, 4), dtype=np.uint8)
    pred[0, 0] = pred[0, 1] = pred[1, 0] = 1
    gt[0, 0] = gt[0, 1] = gt[1, 1] = gt[2, 2] = gt[3, 3] = 1
    return pred, gt


def test_identical_masks_perfect_scores():
    m = (np.random.default_rng(0).random((6, 6)) > 0.5).astype(np.uint8)
    assert m.any()
    counts, recall, precision, dice = score_pair(m, m)
    assert (recall, precision, dice) == (1.0, 1.0, 1.0)
    assert counts.fp == counts.fn == 0


def test_disjoint_masks_zero_dice():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 3] = 1
    assert score_pair(a, b)[3] == 0.0


def test_hand_counted_fixture():
    pred, gt = _fixture_masks()
    counts, recall, precision, dice = score_pair(pred, gt)
    assert (counts.tp, counts.fp, counts.fn) == (2, 1, 3)
    assert recall == pytest.approx(2 / 5, abs=0)
    assert precision == pytest.approx(2 / 3, abs=0)
    assert dice == pytest.approx(0.5, abs=0)


def test_counts_partition_the_image():
    rng = np.random.default_rng(1)
    a = (rng.random((7, 9)) > 0.5).astype(np.uint8)
    b = (rng.random((7, 9)) > 0.5).astype(np.uint8)
    c, _, _, _ = score_pair(a, b)
    assert c.tp + c.fp + c.fn + c.tn == 63


def test_dice_equals_set_size_formula():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = (rng.random((8, 8)) > 0.6).astype(np.uint8)
        b = (rng.random((8, 8)) > 0.6).astype(np.uint8)
        dice = score_pair(a, b)[3]
        inter = int(np.sum((a != 0) & (b != 0)))
        denom = int(a.sum() + b.sum())
        expected = 1.0 if denom == 0 else 2 * inter / denom
        assert dice == expected


def test_metrics_always_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(200):
        density = rng.random()
        a = (rng.random((5, 5)) > density).astype(np.uint8)
        b = (rng.random((5, 5)) > density).astype(np.uint8)
        _, recall, precision, dice = score_pair(a, b)
        assert 0.0 <= recall <= 1.0
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= dice <= 1.0


def test_both_empty_convention():
    z = np.zeros((3, 3), dtype=np.uint8)
    counts, recall, precision, dice = score_pair(z, z)
    assert (recall, precision, dice) == (1.0, 1.0, 1.0)


def test_score_pair_dim_mismatch():
    with pytest.raises(OctCystError, match=r"mask dims differ: \(2, 2\) vs \(3, 3\)"):
        score_pair(np.zeros((2, 2)), np.zeros((3, 3)))


def test_aggregate_stats_known_values():
    mean, std = aggregate_stats([0.5, 0.7, 0.9])
    assert mean == pytest.approx(0.7, abs=1e-12)
    assert std == pytest.approx(0.2, abs=1e-12)


def test_aggregate_single_value():
    assert aggregate_stats([0.42]) == (0.42, 0.0)


def test_aggregate_all_equal():
    mean, std = aggregate_stats([0.3, 0.3, 0.3, 0.3])
    assert mean == pytest.approx(0.3)
    assert std == 0.0


def test_aggregate_empty_rejected():
    with pytest.raises(OctCystError, match="no values to aggregate"):
        aggregate_stats([])


# inter-grader variability is the Dice of the two graders' masks


def test_iov_identical_masks():
    m = (np.random.default_rng(3).random((5, 5)) > 0.4).astype(np.uint8)
    assert score_pair(m, m)[3] == 1.0


def test_iov_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = (rng.random((6, 6)) > 0.5).astype(np.uint8)
        b = (rng.random((6, 6)) > 0.5).astype(np.uint8)
        assert score_pair(a, b)[3] == score_pair(b, a)[3]


def test_iov_equals_score_pair_dice():
    gt1, gt2 = _fixture_masks()
    assert evaluate_pairs([("graders", gt1, gt2)])[0].dice == score_pair(gt1, gt2)[3]


def test_intersect_identical():
    m = (np.random.default_rng(5).random((4, 4)) > 0.5).astype(np.uint8)
    assert np.array_equal(intersect_masks(m, m), m)


def test_intersect_with_zeros():
    m = np.ones((3, 3), dtype=np.uint8)
    assert not intersect_masks(m, np.zeros((3, 3), dtype=np.uint8)).any()


def test_intersect_count_bounded():
    rng = np.random.default_rng(6)
    masks = [(rng.random((5, 5)) > 0.5).astype(np.uint8) for _ in range(2)]
    out = intersect_masks(*masks)
    assert out.sum() <= min(m.sum() for m in masks)


def test_intersect_dim_mismatch():
    with pytest.raises(OctCystError, match=r"mask dims differ: \(3, 3\) vs \(2, 2\)"):
        intersect_masks(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8))


def test_report_formats():
    pred, gt = _fixture_masks()
    scores = evaluate_pairs([("scan1", pred, gt), ("scan2", gt, gt)])
    text = format_report(scores)
    assert "image=scan1" in text and "image=scan2" in text
    assert "mean dice=" in text and "std=" in text
    tsv = format_report_tsv(scores)
    assert tsv.splitlines()[0] == "image\trecall\tprecision\tdice\ttp\tfp\tfn\ttn"
    assert aggregate_stats([s.dice for s in scores])[0] == pytest.approx((0.5 + 1.0) / 2)


def test_report_text_is_pinned():
    # the aggregates are computed as the report is formatted; the bytes are fixed
    pred, gt = _fixture_masks()
    scores = evaluate_pairs([("scan1", pred, gt), ("scan2", gt, gt)])
    assert format_report(scores) == (
        "image=scan1 recall=0.400000 precision=0.666667 dice=0.500000\n"
        "image=scan2 recall=1.000000 precision=1.000000 dice=1.000000\n"
        "mean recall=0.700000 std=0.424264\n"
        "mean precision=0.833333 std=0.235702\n"
        "mean dice=0.750000 std=0.353553\n"
    )
    assert format_report_tsv(scores) == (
        "image\trecall\tprecision\tdice\ttp\tfp\tfn\ttn\n"
        "scan1\t0.400000\t0.666667\t0.500000\t2\t1\t3\t10\n"
        "scan2\t1.000000\t1.000000\t1.000000\t5\t0\t0\t11\n"
        "mean\t0.700000\t0.833333\t0.750000\t\t\t\t\n"
        "std\t0.424264\t0.235702\t0.353553\t\t\t\t\n"
    )
