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


@dataclass(frozen=True)
class EvalReport:
    scores: tuple[ImageScore, ...]
    mean_recall: float
    std_recall: float
    mean_precision: float
    std_precision: float
    mean_dice: float
    std_dice: float


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


def intersect_masks(masks) -> np.ndarray:
    """Pixelwise AND over two or more masks of identical dims."""
    masks = list(masks)
    if len(masks) < 2:
        raise OctCystError(f"need at least 2 masks, got {len(masks)}")
    out = (np.asarray(masks[0]) != 0).astype(np.uint8)
    for m in masks[1:]:
        m = np.asarray(m)
        if m.shape != out.shape:
            raise OctCystError(f"mask dims differ: {m.shape} vs {out.shape}")
        out &= m != 0
    return out


def evaluate_pairs(named_pairs) -> EvalReport:
    """Score (name, pred, gt) triples and aggregate per-image metrics; errors name the pair."""
    scores = []
    for name, pred, gt in named_pairs:
        try:
            counts, recall, precision, dice = score_pair(pred, gt)
        except OctCystError as e:
            raise OctCystError(f"{name}: {e}") from e
        scores.append(ImageScore(name, counts, recall, precision, dice))
    if not scores:
        raise OctCystError("no image pairs to evaluate")
    mr, sr = aggregate_stats([s.recall for s in scores])
    mp, sp = aggregate_stats([s.precision for s in scores])
    md, sd = aggregate_stats([s.dice for s in scores])
    return EvalReport(tuple(scores), mr, sr, mp, sp, md, sd)


def format_report(report: EvalReport) -> str:
    lines = [
        f"image={s.name} recall={s.recall:.6f} precision={s.precision:.6f} "
        f"dice={s.dice:.6f}"
        for s in report.scores
    ]
    lines.append(f"mean recall={report.mean_recall:.6f} std={report.std_recall:.6f}")
    lines.append(
        f"mean precision={report.mean_precision:.6f} std={report.std_precision:.6f}"
    )
    lines.append(f"mean dice={report.mean_dice:.6f} std={report.std_dice:.6f}")
    return "\n".join(lines) + "\n"


def format_report_tsv(report: EvalReport) -> str:
    lines = ["image\trecall\tprecision\tdice\ttp\tfp\tfn\ttn"]
    for s in report.scores:
        c = s.counts
        lines.append(
            f"{s.name}\t{s.recall:.6f}\t{s.precision:.6f}\t{s.dice:.6f}"
            f"\t{c.tp}\t{c.fp}\t{c.fn}\t{c.tn}"
        )
    lines.append(
        f"mean\t{report.mean_recall:.6f}\t{report.mean_precision:.6f}"
        f"\t{report.mean_dice:.6f}\t\t\t\t"
    )
    lines.append(
        f"std\t{report.std_recall:.6f}\t{report.std_precision:.6f}"
        f"\t{report.std_dice:.6f}\t\t\t\t"
    )
    return "\n".join(lines) + "\n"
