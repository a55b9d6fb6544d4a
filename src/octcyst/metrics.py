"""Pixel-overlap evaluation: recall, precision, Dice, grader agreement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OctCystError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class ImageScore:
    name: str
    counts: ConfusionCounts
    recall: float
    precision: float
    dice: float


def _ratio(num: int, den: int) -> float:
    # 0/0 means both sets were empty: perfect agreement by convention
    return 1.0 if den == 0 else num / den


def score_pair(pred: np.ndarray, gt: np.ndarray):
    """Confusion counts plus recall, precision, Dice for one mask pair."""
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.shape != g.shape:
        raise OctCystError(f"mask dims differ: {p.shape} vs {g.shape}")
    p = p != 0
    g = g != 0
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = p.size - tp - fp - fn
    recall = _ratio(tp, tp + fn)
    precision = _ratio(tp, tp + fp)
    dice = _ratio(2 * tp, 2 * tp + fp + fn)
    return ConfusionCounts(tp, fp, fn, tn), recall, precision, dice


def aggregate_stats(values) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation; std is 0 for a
    single value."""
    vals = list(values)
    if not vals:
        raise OctCystError("no values to aggregate")
    n = len(vals)
    m = sum(vals) / n
    if n == 1:
        return m, 0.0
    var = sum((v - m) ** 2 for v in vals) / (n - 1)
    return m, math.sqrt(var)


def intersect_masks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pixelwise AND of two masks of identical dims, as uint8 {0,1}."""
    a, b = np.asarray(a), np.asarray(b)
    # without this check a (1, n) mask would broadcast silently
    if a.shape != b.shape:
        raise OctCystError(f"mask dims differ: {b.shape} vs {a.shape}")
    return ((a != 0) & (b != 0)).astype(np.uint8)


def evaluate_pairs(named_pairs) -> tuple[ImageScore, ...]:
    """Score (name, pred, gt) triples, one ImageScore each; errors name the pair."""
    scores = []
    for name, pred, gt in named_pairs:
        try:
            counts, recall, precision, dice = score_pair(pred, gt)
        except OctCystError as e:
            raise OctCystError(f"{name}: {e}") from e
        scores.append(ImageScore(name, counts, recall, precision, dice))
    if not scores:
        raise OctCystError("no image pairs to evaluate")
    return tuple(scores)


_METRICS = ("recall", "precision", "dice")


def _stats(scores) -> dict[str, tuple[float, float]]:
    """(mean, std) of each metric over the scores."""
    return {k: aggregate_stats([getattr(s, k) for s in scores]) for k in _METRICS}


def format_report(scores) -> str:
    lines = [
        f"image={s.name} recall={s.recall:.6f} precision={s.precision:.6f} "
        f"dice={s.dice:.6f}"
        for s in scores
    ]
    for k, (mean, std) in _stats(scores).items():
        lines.append(f"mean {k}={mean:.6f} std={std:.6f}")
    return "\n".join(lines) + "\n"


def format_report_tsv(scores) -> str:
    lines = ["image\trecall\tprecision\tdice\ttp\tfp\tfn\ttn"]
    for s in scores:
        c = s.counts
        lines.append(
            f"{s.name}\t{s.recall:.6f}\t{s.precision:.6f}\t{s.dice:.6f}"
            f"\t{c.tp}\t{c.fp}\t{c.fn}\t{c.tn}"
        )
    stats = _stats(scores).values()
    lines.append("mean" + "".join(f"\t{m:.6f}" for m, _ in stats) + "\t\t\t\t")
    lines.append("std" + "".join(f"\t{sd:.6f}" for _, sd in stats) + "\t\t\t\t")
    return "\n".join(lines) + "\n"
