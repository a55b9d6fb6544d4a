import itertools

import numpy as np
import pytest

from octcyst.errors import OctCystError
from octcyst.retinagraph import (
    W_MIN,
    LayerKind,
    _column_search,
    classify_layer,
    roi_mask,
    segment_layers,
    shortest_layer_path,
    vertical_gradient,
)


# --- oracles ----------------------------------------------------------------


def edge_weight(g_a, g_b):
    """Weight of the edge joining two pixels with gradient values g_a, g_b."""
    return 2.0 - (g_a + g_b) + W_MIN


def path_cost(field, path):
    """Total weight of a left-to-right path, endpoint edges included."""
    cost = 2.0 * W_MIN
    for c in range(field.shape[1] - 1):
        cost += edge_weight(field[path[c], c], field[path[c + 1], c + 1])
    return cost


def enumerate_min_cost(field, w_min):
    """Exhaustive enumeration over all rows x 3^(cols-1) admissible paths."""
    rows, cols = field.shape
    best = np.inf
    for start in range(rows):
        for deltas in itertools.product((-1, 0, 1), repeat=cols - 1):
            r = start
            path = [r]
            ok = True
            for d in deltas:
                r += d
                if not 0 <= r < rows:
                    ok = False
                    break
                path.append(r)
            if not ok:
                continue
            cost = 2 * w_min
            for c in range(cols - 1):
                cost += 2 - (field[path[c], c] + field[path[c + 1], c + 1]) + w_min
            best = min(best, cost)
    return best


def dp_tiebreak_path(field, w_min, lo=None, hi=None):
    """Minimum-cost path under the stated tie-break, optionally restricted
    per column to rows [lo[c], hi[c]); (None, inf) when no path exists.

    Distances come from a column DP.  The endpoint is the smallest row
    among minimal last-column distances; walking left, each node's parent
    is the predecessor that reaches it at its final distance with the
    smallest (distance, row) — the first relaxer under a (distance, row,
    insertion) pop order with strict relaxation.
    """
    rows, cols = field.shape
    lo = np.zeros(cols, dtype=int) if lo is None else lo
    hi = np.full(cols, rows) if hi is None else hi
    dist = np.full((rows, cols), np.inf)
    dist[lo[0] : hi[0], 0] = w_min

    def cand(pr, r, c):
        return dist[pr, c - 1] + 2 - (field[pr, c - 1] + field[r, c]) + w_min

    for c in range(1, cols):
        for r in range(lo[c], hi[c]):
            for pr in (r - 1, r, r + 1):
                if lo[c - 1] <= pr < hi[c - 1]:
                    dist[r, c] = min(dist[r, c], cand(pr, r, c))
    end = min(range(rows), key=lambda r: (dist[r, cols - 1], r))
    if dist[end, cols - 1] == np.inf:
        return None, np.inf
    path = [end]
    for c in range(cols - 1, 0, -1):
        r = path[-1]
        # exact comparison: with forced ties, distances a few ulps apart
        # are distinct, and only the exactly minimal candidates compete
        cands = [
            pr
            for pr in (r - 1, r, r + 1)
            if lo[c - 1] <= pr < hi[c - 1] and cand(pr, r, c) == dist[r, c]
        ]
        path.append(min(cands, key=lambda pr: (dist[pr, c - 1], pr)))
    return np.array(path[::-1]), dist[end, cols - 1] + w_min


def column_search_loop(field, lo, hi):
    """The column search scanning predecessors r-1, r, r+1 one at a time
    (oracle): one replaces the best when it is strictly cheaper, or equally
    cheap from a strictly smaller distance."""
    rows, cols = field.shape
    row_idx = np.arange(rows)
    outside = (row_idx < lo[:, None]) | (row_idx >= hi[:, None])
    g_pad = np.pad(field, ((1, 1), (0, 0)))
    d_pad = np.full(rows + 2, np.inf)
    dist = np.where(outside[0], np.inf, W_MIN)
    step = np.zeros((cols, rows), dtype=np.int8)
    for c in range(1, cols):
        d_pad[1:-1] = dist
        best = best_d = np.full(rows, np.inf)
        for k in (-1, 0, 1):
            d = d_pad[1 + k : 1 + k + rows]
            cand = d + 2.0 - (g_pad[1 + k : 1 + k + rows, c - 1] + field[:, c]) + W_MIN
            take = (cand < best) | ((cand == best) & (d < best_d))
            best, best_d = np.where(take, cand, best), np.where(take, d, best_d)
            step[c, take] = k
        dist = np.where(outside[c], np.inf, best)
    path = np.empty(cols, dtype=np.int64)
    path[-1] = np.argmin(dist)
    if dist[path[-1]] == np.inf:
        raise OctCystError("no admissible path through the field")
    for c in range(cols - 1, 0, -1):
        path[c - 1] = path[c] + step[c, path[c]]
    return path


# --- vertical gradient ------------------------------------------------------


def test_gradient_uniform_image_is_zero():
    assert not vertical_gradient(np.full((10, 8), 99, dtype=np.uint8)).any()


def test_gradient_two_band_oracle():
    img = np.zeros((12, 6), dtype=np.uint8)
    img[6:] = 255
    field = vertical_gradient(img)
    # independent computation: clamped central difference, then min-max
    raw = np.zeros((12, 6))
    f = img.astype(float)
    raw[1:-1] = f[2:] - f[:-2]
    raw[0], raw[-1] = raw[1], raw[-2]
    raw = np.maximum(raw, 0)
    expected = raw / raw.max()
    assert np.allclose(field, expected, atol=0)
    assert field.max() == 1.0
    assert np.all(field[[5, 6]] == 1.0)
    assert not field[:4].any() and not field[9:].any()


def test_gradient_inverted_bands_clamp_to_zero():
    img = np.zeros((12, 6), dtype=np.uint8)
    img[:6] = 255
    assert not vertical_gradient(img).any()


# --- edge weight ------------------------------------------------------------


def test_edge_weight_values():
    assert edge_weight(1.0, 1.0) == pytest.approx(1e-5, abs=1e-12)
    assert edge_weight(0.0, 0.0) == pytest.approx(2.00001, abs=1e-12)
    assert edge_weight(0.5, 0.25) == pytest.approx(1.25001, abs=1e-12)


# --- shortest path ----------------------------------------------------------


def test_single_row_field():
    field = np.random.default_rng(0).random((1, 7))
    path = shortest_layer_path(field)
    assert np.array_equal(path, np.zeros(7, dtype=np.int64))
    expected = 2e-5 + sum(
        edge_weight(field[0, c], field[0, c + 1]) for c in range(6)
    )
    assert path_cost(field, path) == pytest.approx(expected, abs=1e-12)


def test_uniform_field_topmost_path():
    field = np.full((6, 9), 0.3)
    path = shortest_layer_path(field)
    assert np.array_equal(path, np.zeros(9, dtype=np.int64))


def test_dijkstra_matches_enumeration_on_random_fields():
    rng = np.random.default_rng(123)

    def quantized(shape):
        # values in {0, .5, 1} force many equal-cost paths
        return rng.choice([0.0, 0.5, 1.0], size=shape)

    for make_field in (rng.random, quantized):
        for _ in range(50):
            field = make_field((6, 8))
            path = shortest_layer_path(field)
            cost = path_cost(field, path)
            assert abs(cost - enumerate_min_cost(field, W_MIN)) <= 1e-12
            oracle_path, oracle_cost = dp_tiebreak_path(field, W_MIN)
            assert abs(cost - oracle_cost) <= 1e-12
            assert np.array_equal(path, oracle_path)
            assert np.all(np.abs(np.diff(path)) <= 1)

    # restricted windows, as the second search of segment_layers uses them:
    # a band around a random walk, like a cut beside a found path
    for make_field in (rng.random, quantized):
        for _ in range(50):
            field = make_field((8, 8))
            walk = np.clip(3 + np.cumsum(rng.integers(-1, 2, size=8)), 0, 7)
            lo = np.maximum(walk - rng.integers(0, 3, size=8), 0)
            hi = np.minimum(walk + rng.integers(1, 4, size=8), 8)
            path = _column_search(field, lo, hi)
            oracle_path, oracle_cost = dp_tiebreak_path(field, W_MIN, lo, hi)
            assert np.array_equal(path, oracle_path)
            assert abs(path_cost(field, path) - oracle_cost) <= 1e-12
            assert np.all((lo <= path) & (path < hi))
    # a window closed in one column admits no path
    hi[4] = lo[4]
    assert dp_tiebreak_path(field, W_MIN, lo, hi)[0] is None
    with pytest.raises(OctCystError, match="no admissible path"):
        _column_search(field, lo, hi)


def test_column_search_matches_the_one_predecessor_at_a_time_loop():
    rng = np.random.default_rng(99)

    def outcome(search, field, lo, hi):
        try:
            return search(field, lo, hi).tolist()
        except OctCystError as e:
            return str(e)

    def quantized(shape):
        return rng.choice([0.0, 0.25, 0.5, 1.0], size=shape)

    closed = 0
    for make_field in (rng.random, quantized):
        for _ in range(200):
            rows, cols = int(rng.integers(1, 14)), int(rng.integers(1, 14))
            field = make_field((rows, cols))
            full = np.zeros(cols, dtype=np.int64), np.full(cols, rows)
            # random windows, some of them closed in a column
            lo = rng.integers(0, rows, size=cols)
            window = lo, np.minimum(lo + rng.integers(0, 5, size=cols), rows)
            for lo, hi in (full, window):
                expected = outcome(column_search_loop, field, lo, hi)
                assert outcome(_column_search, field, lo, hi) == expected
                closed += isinstance(expected, str)
    assert closed > 0


def test_dijkstra_matches_enumeration_across_sizes():
    rng = np.random.default_rng(321)
    for rows, cols in ((1, 7), (3, 5), (8, 8), (5, 2), (8, 3)):
        for _ in range(4):
            field = rng.random((rows, cols))
            path = shortest_layer_path(field)
            cost = path_cost(field, path)
            assert abs(cost - enumerate_min_cost(field, W_MIN)) <= 1e-12


# --- classification ---------------------------------------------------------


def _flat_path(rows_value, cols):
    return np.full(cols, rows_value, dtype=np.int64)


def test_classify_bright_above_is_ism():
    img = np.full((10, 5), 20, dtype=np.uint8)
    img[:5] = 200
    assert classify_layer(img, _flat_path(5, 5)) is LayerKind.ISM


def test_classify_dark_above_is_ilm():
    img = np.full((10, 5), 200, dtype=np.uint8)
    img[:5] = 20
    assert classify_layer(img, _flat_path(5, 5)) is LayerKind.ILM


def test_classify_tie_falls_to_ilm():
    img = np.full((9, 4), 100, dtype=np.uint8)
    assert classify_layer(img, _flat_path(4, 4)) is LayerKind.ILM


def test_classify_degenerate_path():
    img = np.full((5, 4), 10, dtype=np.uint8)
    with pytest.raises(OctCystError, match="path leaves no pixels above or below"):
        classify_layer(img, _flat_path(0, 4))


# --- two-layer segmentation -------------------------------------------------


def _layered_image(rows, cols, ilm, ism, vitreous, band, tail):
    """Scan-like intensity stack: dark vitreous, bright band from the ILM
    row, a dark strip above the ISM row, a bright tail, dark below."""
    img = np.full((rows, cols), vitreous, dtype=np.uint8)
    img[ilm : ism - 3] = band
    img[ism : ism + 6] = tail
    return img


def test_segment_layers_ism_contrast_stronger():
    # ILM step 20->150 (contrast 130), ISM step 20->220 (contrast 200)
    img = _layered_image(60, 12, 10, 40, vitreous=20, band=150, tail=220)
    first = shortest_layer_path(vertical_gradient(img))
    assert classify_layer(img, first) is LayerKind.ISM
    assert np.all(np.abs(first - 40) <= 1)
    ilm, ism = segment_layers(img)
    assert np.all(np.abs(ilm - 10) <= 1)
    assert np.all(np.abs(ism - 40) <= 1)


def test_segment_layers_ilm_contrast_stronger():
    # ILM step 10->200 (contrast 190), ISM step 10->150 (contrast 140)
    img = _layered_image(60, 12, 10, 40, vitreous=10, band=200, tail=150)
    first = shortest_layer_path(vertical_gradient(img))
    assert classify_layer(img, first) is LayerKind.ILM
    assert np.all(np.abs(first - 10) <= 1)
    ilm, ism = segment_layers(img)
    assert np.all(np.abs(ilm - 10) <= 1)
    assert np.all(np.abs(ism - 40) <= 1)


def test_segment_layers_flat_image():
    with pytest.raises(OctCystError, match="gradient field is identically zero"):
        segment_layers(np.full((20, 10), 50, dtype=np.uint8))


def test_segment_layers_minimum_rows():
    with pytest.raises(OctCystError, match="need at least 5 rows, got 4"):
        segment_layers(np.zeros((4, 10), dtype=np.uint8))


def test_segment_layers_thin_subgraph():
    # strongest transition at row 2, classified ISM, leaves only 2 rows above
    col = np.array([180, 20, 20, 180, 180, 20, 20, 20], dtype=np.uint8)
    img = np.tile(col[:, None], (1, 10))
    with pytest.raises(OctCystError, match="cut leaves fewer than 3 rows"):
        segment_layers(img)


def test_segment_layers_ordering_always_holds():
    rng = np.random.default_rng(5)
    for seed in range(5):
        img = _layered_image(50, 9, 8 + seed, 32 + seed, vitreous=20, band=170, tail=210)
        noise = rng.integers(-5, 6, size=img.shape)
        noisy = np.clip(img.astype(int) + noise, 0, 255).astype(np.uint8)
        ilm, ism = segment_layers(noisy)
        assert np.all(ilm < ism)


# --- ROI --------------------------------------------------------------------


def test_roi_strict_interior():
    r = roi_mask(np.array([2, 2]), np.array([5, 5]), 8)
    assert set(np.where(r[:, 0])[0].tolist()) == {3, 4}
    assert set(np.where(r[:, 1])[0].tolist()) == {3, 4}


def test_roi_adjacent_paths_empty():
    r = roi_mask(np.array([2]), np.array([3]), 6)
    assert r.sum() == 0


def test_roi_bit_count_closed_form():
    rng = np.random.default_rng(8)
    rows, cols = 30, 15
    ilm = rng.integers(0, 10, size=cols)
    ism = ilm + rng.integers(1, 15, size=cols)
    r = roi_mask(ilm, ism, rows)
    expected = int(np.sum(np.maximum(0, ism - ilm - 1)))
    assert int(r.sum()) == expected
