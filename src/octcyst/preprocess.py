"""Speckle reduction by bilateral filtering.

The range parameter sigma_r is estimated from the background band at the
top of the scan (vitreous), which avoids needing the layer segmentation
that itself runs on the denoised image.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_D = 2.0
# the spatial Gaussian is cut at 2 sigma: a 9x9 window
RADIUS = math.ceil(2 * SIGMA_D)


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
    neighbors, so the filter is a convex combination everywhere.
    """
    img = np.asarray(image, dtype=np.float64)
    rows, cols = img.shape
    inv_2sd2 = 1.0 / (2.0 * sigma_d * sigma_d)
    inv_2sr2 = 1.0 / (2.0 * sigma_r * sigma_r)

    num = np.zeros_like(img)
    den = np.zeros_like(img)
    # offsets at or beyond an image dimension reach no pixel
    ri, rj = min(radius, rows - 1), min(radius, cols - 1)
    for di in range(-ri, ri + 1):
        for dj in range(-rj, rj + 1):
            w_spatial = math.exp(-(di * di + dj * dj) * inv_2sd2)
            # region of centers whose (di, dj) neighbor is in bounds
            r0, r1 = max(0, -di), rows - max(0, di)
            c0, c1 = max(0, -dj), cols - max(0, dj)
            center = img[r0:r1, c0:c1]
            neigh = img[r0 + di : r1 + di, c0 + dj : c1 + dj]
            w = w_spatial * np.exp(-((neigh - center) ** 2) * inv_2sr2)
            num[r0:r1, c0:c1] += w * neigh
            den[r0:r1, c0:c1] += w
    out = np.rint(num / den)
    return np.clip(out, 0, 255).astype(np.uint8)
