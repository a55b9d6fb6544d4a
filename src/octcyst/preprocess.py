"""Speckle reduction by bilateral filtering.

The range parameter sigma_r is estimated from the background band at the
top of the scan (vitreous), which avoids needing the layer segmentation
that itself runs on the denoised image.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig

DEFAULT_SIGMA_D = 2.0


def default_radius(sigma_d: float) -> int:
    """Conventional 2-sigma truncation of the spatial Gaussian; the one
    range check on sigma_d, which must be > 0 with 2*sigma_d finite and
    1/(2*sigma_d^2), the spatial weights' factor, finite too."""
    two_sd2 = 2.0 * sigma_d * sigma_d
    if not (0 < 2.0 * sigma_d < math.inf and two_sd2 > 0 and 1.0 / two_sd2 < math.inf):
        raise InvalidConfig(
            f"sigma_d must be finite and > 0, as must 2*sigma_d, and 1/(2*sigma_d^2) finite, got {sigma_d}"
        )
    return max(1, math.ceil(2.0 * sigma_d))


def estimate_sigma_r(image: np.ndarray) -> float:
    """Population std of the top 10% of rows, at least 8 (all rows of a
    shorter scan), floored at 1.0."""
    rows = image.shape[0]
    band = np.asarray(image[: min(rows, max(8, rows // 10))], dtype=np.float64)
    return max(1.0, float(band.std()))


def denoise(image: np.ndarray, sigma_d: float = DEFAULT_SIGMA_D) -> np.ndarray:
    """The denoising stage: bilateral filter with sigma_r estimated from the
    background band and the default radius for sigma_d."""
    sigma_r = estimate_sigma_r(image)
    return bilateral_filter(image, sigma_d, sigma_r, default_radius(sigma_d))


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
