"""Graph-based ILM/ISM boundary extraction.

Each pixel is a node; a node connects rightward to its three column-(c+1)
neighbors within one row, weighted by 2 - (g_a + g_b) + W_MIN on the
dark-to-light vertical gradient.  Virtual endpoint columns attach to every
row of the first and last columns with weight W_MIN, so boundary endpoints
need no initialization.  The first minimum-weight path is classified as
ILM or ISM by the brightness above/below it; the graph is cut at that path
and the second boundary is searched on the remaining side.

W_MIN is the small positive constant Chiu et al. 2010 add so that Dijkstra
sees positive weights.  The column search does not need it, and it cannot
move a path: every path has cols + 1 edges, so W_MIN adds the same amount
to each one.  It stays in the arithmetic so path costs keep their bits.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OctCystError

W_MIN = 1e-5


class LayerKind(Enum):
    ILM = "ILM"
    ISM = "ISM"


def vertical_gradient(image: np.ndarray) -> np.ndarray:
    """Dark-to-light response I(r+1,c) - I(r-1,c), clamped at 0, min-max
    normalized to [0,1], of an image of at least 3 rows.  Border rows copy
    the nearest interior row; a constant response field normalizes to all
    zeros."""
    img = np.asarray(image, dtype=np.float64)
    d = np.empty_like(img)
    d[1:-1] = img[2:] - img[:-2]
    d[0] = d[1]
    d[-1] = d[-2]
    np.maximum(d, 0.0, out=d)
    lo, hi = d.min(), d.max()
    if hi == lo:
        return np.zeros_like(d)
    return (d - lo) / (hi - lo)


def _column_search(field: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimum-weight path restricted per column to rows [lo[c], hi[c]).

    Every edge runs from column c to column c+1, so distances follow a
    min-plus recurrence over columns, vectorized over rows and the three
    predecessors r-1, r, r+1 at once.  A row takes the cheapest
    predecessor, among equally cheap ones the one of smallest distance,
    and among those the topmost; the end row is the first argmin.  This is
    the path a heap Dijkstra settles under (distance, row) pop order with
    strict relaxation."""
    rows, cols = field.shape
    row_idx = np.arange(rows)
    # 0 inside a column's window, inf outside it
    barrier = np.where((row_idx < lo[:, None]) | (row_idx >= hi[:, None]), np.inf, 0.0)
    # g_pred[c][k + 1] holds the field at rows r + k of column c
    g_pred = sliding_window_view(np.pad(field.T, ((0, 0), (1, 1))), rows, axis=1)
    f_cols = np.ascontiguousarray(field.T)
    d_pad = np.full(rows + 2, np.inf)
    d_pad[1:-1] = W_MIN + barrier[0]
    d_pred = sliding_window_view(d_pad, rows)  # d_pred[k + 1]: distances at rows r + k
    step = np.zeros((cols, rows), dtype=np.int8)  # predecessor row offset + 1
    for c in range(1, cols):
        cand = d_pred + 2.0
        cand -= g_pred[c - 1] + f_cols[c]
        cand += W_MIN
        best = cand.min(axis=0)
        step[c] = np.where(cand == best, d_pred, np.inf).argmin(axis=0)
        np.add(best, barrier[c], out=d_pad[1:-1])

    dist = d_pad[1:-1]
    path = np.empty(cols, dtype=np.int64)
    path[-1] = np.argmin(dist)
    if dist[path[-1]] == np.inf:
        raise OctCystError("no admissible path through the field")
    for c in range(cols - 1, 0, -1):
        path[c - 1] = path[c] + step[c, path[c]] - 1
    return path


def shortest_layer_path(field: np.ndarray) -> np.ndarray:
    """Minimum-total-weight left-to-right path over the full field."""
    rows, cols = field.shape
    lo = np.zeros(cols, dtype=np.int64)
    hi = np.full(cols, rows, dtype=np.int64)
    return _column_search(field, lo, hi)


def classify_layer(image: np.ndarray, path: np.ndarray) -> LayerKind:
    """ISM if the region strictly above the path is brighter on average
    than the region strictly below it; ILM otherwise."""
    img = np.asarray(image, dtype=np.float64)
    rows, cols = img.shape
    row_idx = np.arange(rows)[:, None]
    above = row_idx < path[None, :]
    below = row_idx > path[None, :]
    n_above = int(above.sum())
    n_below = int(below.sum())
    if n_above == 0 or n_below == 0:
        raise OctCystError("path leaves no pixels above or below")
    mean_above = float(img[above].sum()) / n_above
    mean_below = float(img[below].sum()) / n_below
    return LayerKind.ISM if mean_above > mean_below else LayerKind.ILM


def segment_layers(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract both boundaries; returns (ilm, ism) with ilm above ism.

    The first path is found on the full graph and classified; the second is
    searched above it (if the first was ISM) or below it (if it was ILM).
    The cut removes the path rows plus one guard row on the searched side:
    the central-difference ridge of a boundary spans two rows, and without
    the guard the second search re-detects the first boundary's other
    ridge row instead of the remaining layer."""
    img = np.asarray(image)
    rows, cols = img.shape
    if rows < 5:
        raise OctCystError(f"need at least 5 rows, got {rows}")
    field = vertical_gradient(img)
    if not field.any():
        raise OctCystError("gradient field is identically zero")

    first = shortest_layer_path(field)
    kind = classify_layer(img, first)
    if kind is LayerKind.ISM:
        lo = np.zeros(cols, dtype=np.int64)
        hi = first - 1
    else:
        lo = first + 2
        hi = np.full(cols, rows, dtype=np.int64)
    if int((hi - lo).min()) < 3:
        raise OctCystError("cut leaves fewer than 3 rows to search")
    second = _column_search(field, lo, hi)

    return (second, first) if kind is LayerKind.ISM else (first, second)


def roi_mask(ilm: np.ndarray, ism: np.ndarray, rows: int) -> np.ndarray:
    """uint8 {0,1} mask of the strict interior between the two boundaries."""
    row_idx = np.arange(rows)[:, None]
    return ((row_idx > ilm[None, :]) & (row_idx < ism[None, :])).astype(np.uint8)
