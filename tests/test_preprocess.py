import math
import threading

import numpy as np
import pytest

from octcyst import preprocess
from octcyst.dataio import PhantomSpec, gen_phantom
from octcyst.preprocess import bilateral_filter, denoise, estimate_sigma_r


def naive_bilateral(img, sigma_d, sigma_r, radius):
    """Direct per-pixel evaluation with clipped windows (oracle)."""
    img = np.asarray(img, dtype=np.float64)
    rows, cols = img.shape
    out = np.empty_like(img)
    for r in range(rows):
        for c in range(cols):
            num = den = 0.0
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        w = math.exp(-(dr * dr + dc * dc) / (2 * sigma_d**2))
                        w *= math.exp(-((img[rr, cc] - img[r, c]) ** 2) / (2 * sigma_r**2))
                        num += w * img[rr, cc]
                        den += w
            out[r, c] = num / den
    return out


def test_constant_image_unchanged():
    img = np.full((9, 9), 7, dtype=np.uint8)
    out = bilateral_filter(img, 2.0, 10.0, 4)
    assert np.array_equal(out, img)


def test_single_pixel_unchanged():
    img = np.array([[42]], dtype=np.uint8)
    out = bilateral_filter(img, 2.0, 30.0, 1)
    assert np.array_equal(out, img)


def test_center_pixel_matches_naive_oracle():
    img = np.array([[0, 0, 0], [0, 90, 0], [0, 0, 0]], dtype=np.uint8)
    out = bilateral_filter(img, 2.0, 30.0, 1)
    oracle = naive_bilateral(img, 2.0, 30.0, 1)
    assert abs(float(out[1, 1]) - oracle[1, 1]) <= 0.5


def test_matches_naive_oracle_everywhere():
    rng = np.random.default_rng(42)
    for _ in range(3):
        img = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
        out = bilateral_filter(img, 2.0, 25.0, 3).astype(np.float64)
        oracle = naive_bilateral(img, 2.0, 25.0, 3)
        assert np.max(np.abs(out - oracle)) <= 0.5


def test_output_within_window_range():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    radius = 2
    out = bilateral_filter(img, 1.5, 40.0, radius)
    rows, cols = img.shape
    for r in range(rows):
        for c in range(cols):
            window = img[
                max(0, r - radius) : r + radius + 1, max(0, c - radius) : c + radius + 1
            ]
            assert window.min() <= out[r, c] <= window.max()


def test_commutes_with_intensity_shift():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 200, size=(12, 12), dtype=np.uint8)
    shifted = bilateral_filter((img + 30).astype(np.uint8), 2.0, 20.0, 2).astype(int)
    base = bilateral_filter(img, 2.0, 20.0, 2).astype(int) + 30
    assert np.max(np.abs(shifted - base)) <= 1


def test_radius_beyond_the_image_matches_radius_at_the_image_edge():
    # an offset of a whole dimension or more reaches no pixel
    img = np.random.default_rng(11).integers(0, 256, size=(6, 9), dtype=np.uint8)
    edge = bilateral_filter(img, 3.0, 25.0, 8)
    assert bilateral_filter(img, 3.0, 25.0, 10**9).tobytes() == edge.tobytes()


def test_default_radius_is_two_sigma():
    # sigma_d = 2.0, its window cut at 2 sigma: radius 4
    img = np.random.default_rng(13).integers(0, 256, size=(20, 24), dtype=np.uint8)
    expected = bilateral_filter(img, 2.0, estimate_sigma_r(img), 4)
    assert denoise(img).tobytes() == expected.tobytes()


def test_sigma_r_floor_on_constant_band():
    img = np.full((20, 10), 55, dtype=np.uint8)
    assert estimate_sigma_r(img) == 1.0


def test_sigma_r_alternating_band():
    img = np.zeros((8, 10), dtype=np.uint8)
    img[0::2] = 0
    img[1::2] = 10
    assert estimate_sigma_r(img) == pytest.approx(5.0, abs=0)


def test_sigma_r_matches_two_pass_oracle():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(120, 17), dtype=np.uint8)
    band = img[:12].astype(np.float64).ravel()  # 10% of 120 rows
    mean = band.sum() / band.size
    var = ((band - mean) ** 2).sum() / band.size
    assert estimate_sigma_r(img) == pytest.approx(math.sqrt(var), abs=1e-9)


def test_sigma_r_row_permutation_invariant():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(10, 8), dtype=np.uint8)
    perm = img.copy()
    perm[:8] = img[:8][::-1]  # the 8-row band of a 10-row scan
    assert estimate_sigma_r(img) == estimate_sigma_r(perm)


def test_sigma_r_band_rule():
    # row r holds r, so the std tells how many top rows were taken:
    # 10% of the rows, at least 8, or all rows of a shorter scan
    for rows, band in ((640, 64), (50, 8), (5, 5)):
        img = np.repeat(np.arange(rows, dtype=np.float64)[:, None], 3, axis=1)
        expected = np.arange(band, dtype=np.float64).std()
        assert estimate_sigma_r(img) == pytest.approx(expected, abs=1e-9)


# --- row bands --------------------------------------------------------------


@pytest.mark.parametrize(
    "shape, radius",
    [((1, 40), 4), ((40, 1), 4), ((9, 30), 4), ((7, 25), 4), ((3, 33), 4), ((2, 2), 4),
     ((31, 17), 3), ((5, 12), 6)],
    ids=["one-row", "one-col", "rows-2r+1", "rows-below-2r+1", "radius-over-rows",
         "radius-over-both", "odd-rows", "radius-over-rows-wide"],
)
def test_bands_give_the_bytes_of_one_band(shape, radius):
    # more bands than rows leave the extra bands empty
    img = np.random.default_rng(21).integers(0, 256, size=shape).astype(np.float64)
    one = preprocess._filter_bands(img, 1, 2.0, 25.0, radius)
    assert one.tobytes() == bilateral_filter(img, 2.0, 25.0, radius).tobytes()
    for bands in (2, 3, 4):
        assert preprocess._filter_bands(img, bands, 2.0, 25.0, radius).tobytes() == one.tobytes()


def test_denoise_bytes_do_not_depend_on_the_core_count(monkeypatch):
    spec = PhantomSpec(rows=496, cols=512, ilm_row=70, ism_row=320, n_cysts=3,
                       cyst_axis_range=(10, 40), seed=17)
    image = gen_phantom(spec)[0]
    small = np.random.default_rng(2).integers(0, 256, size=(64, 96), dtype=np.uint8)
    bands = []
    band_rows = preprocess._filter_rows

    def recording(img, out, b0, b1, *rest):
        bands.append((b0, b1))
        band_rows(img, out, b0, b1, *rest)

    monkeypatch.setattr(preprocess, "_filter_rows", recording)
    outputs = []
    for cores in (1, 2, 3, 4):
        monkeypatch.setattr(preprocess, "usable_cores", lambda: cores)
        outputs.append(denoise(image).tobytes())
        denoise(small)
    assert outputs[1:] == outputs[:1] * 3
    # a band keeps at least 2^16 pixels, so 496x512 takes 3 bands at most and
    # a 64x96 scan one
    assert sorted(bands) == sorted(
        [(0, 496), (0, 64), (0, 248), (248, 496), (0, 64), (0, 165), (165, 330), (330, 496),
         (0, 64), (0, 165), (165, 330), (330, 496), (0, 64)]
    )


def test_a_failing_band_raises_in_the_caller_and_leaves_no_thread(monkeypatch):
    band_rows = preprocess._filter_rows

    def failing(img, out, b0, b1, *rest):
        if b0 > 0:
            raise MemoryError("band 1")
        band_rows(img, out, b0, b1, *rest)

    monkeypatch.setattr(preprocess, "_filter_rows", failing)
    img = np.random.default_rng(8).integers(0, 256, size=(40, 30)).astype(np.float64)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="band 1"):
        preprocess._filter_bands(img, 2, 2.0, 25.0, 4)
    assert threading.active_count() == threads
