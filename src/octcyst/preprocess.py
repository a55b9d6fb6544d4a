"""Speckle reduction by bilateral filtering.

The range parameter sigma_r is estimated from the background band at the
top of the scan (vitreous), which avoids needing the layer segmentation
that itself runs on the denoised image.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cores import usable_cores

SIGMA_D = 2.0
# the spatial Gaussian is cut at 2 sigma: a 9x9 window
RADIUS = math.ceil(2 * SIGMA_D)
# A band of fewer pixels spends its time waiting on the interpreter lock:
# 64x96 scans filtered slower in two bands than in one.
BAND_MIN_PIXELS = 1 << 16


def estimate_sigma_r(image: np.ndarray) -> float:
    """Population std of the top 10% of rows, at least 8 (all rows of a
    shorter scan), floored at 1.0."""
    rows = image.shape[0]
    band = np.asarray(image[: min(rows, max(8, rows // 10))], dtype=np.float64)
    return max(1.0, float(band.std()))


def denoise(image: np.ndarray) -> np.ndarray:
    """The denoising stage: bilateral filter with sigma_r estimated from the
    background band, SIGMA_D and RADIUS."""
    return bilateral_filter(image, SIGMA_D, estimate_sigma_r(image), RADIUS)


def bilateral_filter(
    image: np.ndarray, sigma_d: float, sigma_r: float, radius: int
) -> np.ndarray:
    """Edge-preserving smoothing.

    Each output pixel is the normalized sum over the (2*radius+1)^2 window
    of neighbor intensities weighted by a spatial Gaussian (sigma_d) and a
    range Gaussian on intensity differences (sigma_r).  Windows are clipped
    at the borders and the normalizer is recomputed over in-bounds
    neighbors, so the filter is a convex combination everywhere.  Row bands,
    one per usable core while each keeps about BAND_MIN_PIXELS, run on
    threads; each pixel sums its offsets in one order whatever the bands.
    """
    img = np.asarray(image, dtype=np.float64)
    bands = max(1, min(usable_cores(), img.size // BAND_MIN_PIXELS))
    return _filter_bands(img, bands, sigma_d, sigma_r, radius)


def _filter_bands(img: np.ndarray, bands: int, *params) -> np.ndarray:
    """bilateral_filter of a float64 image in `bands` row bands, the first
    on the calling thread; a band's exception is raised once all stopped."""
    rows, cols = img.shape
    out = np.empty((rows, cols), dtype=np.uint8)
    edges = sorted({rows * b // bands for b in range(bands + 1)})
    # each band's numerator, denominator and two temporaries, allocated here:
    # a thread's own large allocations stay in its malloc arena after it ends
    jobs = [(img, out, b0, b1, np.zeros((4, b1 - b0, cols)), *params)
            for b0, b1 in zip(edges, edges[1:])]
    with ThreadPoolExecutor(max(1, len(jobs) - 1)) as pool:
        rest = [pool.submit(_filter_rows, *job) for job in jobs[1:]]
        _filter_rows(*jobs[0])
        for band in rest:
            band.result()
    return out


def _filter_rows(img, out, b0, b1, scratch, sigma_d, sigma_r, radius) -> None:
    """Filter output rows [b0, b1) of `img` into `out`, reading up to
    `radius` rows beyond them."""
    rows, cols = img.shape
    inv_2sd2 = 1.0 / (2.0 * sigma_d * sigma_d)
    inv_2sr2 = 1.0 / (2.0 * sigma_r * sigma_r)

    num, den = scratch[:2]
    # offsets at or beyond an image dimension reach no pixel
    ri, rj = min(radius, rows - 1), min(radius, cols - 1)
    for di in range(-ri, ri + 1):
        # band rows whose di neighbor is in bounds
        r0, r1 = max(b0, -di), min(b1, rows - di)
        if r0 >= r1:
            continue
        for dj in range(-rj, rj + 1):
            w_spatial = math.exp(-(di * di + dj * dj) * inv_2sd2)
            c0, c1 = max(0, -dj), cols - max(0, dj)
            center = img[r0:r1, c0:c1]
            neigh = img[r0 + di : r1 + di, c0 + dj : c1 + dj]
            # contiguous temporaries: exp and the products run fastest on them
            temps = scratch[2:].reshape(2, -1)[:, : center.size]
            w, wn = temps.reshape(2, r1 - r0, c1 - c0)
            np.subtract(neigh, center, out=w)
            np.square(w, out=w)
            np.multiply(w, -inv_2sr2, out=w)
            np.exp(w, out=w)
            np.multiply(w, w_spatial, out=w)
            np.multiply(w, neigh, out=wn)
            num[r0 - b0 : r1 - b0, c0:c1] += wn
            den[r0 - b0 : r1 - b0, c0:c1] += w
    np.divide(num, den, out=num)
    np.rint(num, out=num)
    out[b0:b1] = np.clip(num, 0, 255, out=num)
