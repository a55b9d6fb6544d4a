"""Synthetic B-scan phantoms with exact ground truth.

A phantom mimics the intensity structure the layer graph relies on: dark
vitreous on top, a bright retina band starting at the ILM row, a thin dark
strip just above the ISM row (so the ISM boundary is itself a dark-to-light
transition), a bright tail below it, and dark background underneath.  Dark
elliptical cysts are placed inside the band, and multiplicative speckle is
applied on top.  Everything is a pure function of the spec, including its
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig, OctCystError
from ..rng import SplitMix64, gaussian_array

_MAX_ATTEMPTS_PER_CYST = 200

VITREOUS_MEAN = 20.0
DARK_ROWS_ABOVE_ISM = 3
BRIGHT_ROWS_BELOW_ISM = 4
RETINA_MEAN = 180.0
CYST_MEAN = 30.0


@dataclass(frozen=True)
class PhantomSpec:
    rows: int
    cols: int
    ilm_row: int
    ism_row: int
    n_cysts: int
    cyst_axis_range: tuple[int, int] = (2, 6)
    speckle_sigma: float = 0.06
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.ilm_row < self.ism_row < self.rows):
            raise InvalidConfig(
                f"need 0 < ilm_row < ism_row < rows, got "
                f"ilm={self.ilm_row} ism={self.ism_row} rows={self.rows}"
            )
        if self.cols < 2:
            # one column gives every layer path the same cost
            raise InvalidConfig(f"need cols >= 2, got {self.cols}")
        if self.ism_row + BRIGHT_ROWS_BELOW_ISM >= self.rows:
            # the layer stage needs a dark row below the tail
            raise InvalidConfig(
                f"the {BRIGHT_ROWS_BELOW_ISM}-row bright tail below the ISM at row "
                f"{self.ism_row} leaves no dark row in {self.rows} rows"
            )
        amin, amax = self.cyst_axis_range
        if not (1 <= amin <= amax):
            raise InvalidConfig(f"bad cyst_axis_range {self.cyst_axis_range}")
        if not 0 <= self.speckle_sigma < math.inf:
            raise InvalidConfig(f"speckle_sigma must be finite and >= 0, got {self.speckle_sigma}")
        if self.n_cysts < 0:
            raise InvalidConfig("n_cysts must be >= 0")
        if self.n_cysts > 0:
            lo, hi = self._cyst_row_range(amax)
            if lo > hi:
                raise InvalidConfig("cyst axes do not fit inside the ILM/ISM band")
            if amax > (self.cols - 1) - amax:
                raise InvalidConfig("cyst axes do not fit inside the image columns")

    def _cyst_row_range(self, b: int) -> tuple[int, int]:
        """Valid center rows for a cyst of row-semiaxis b (inclusive)."""
        band_top = self.ilm_row + 1
        band_bot = self.ism_row - DARK_ROWS_ABOVE_ISM - 1
        return band_top + b, band_bot - b


def _base_intensities(spec: PhantomSpec) -> np.ndarray:
    img = np.full((spec.rows, spec.cols), VITREOUS_MEAN, dtype=np.float64)
    strip_top = spec.ism_row - DARK_ROWS_ABOVE_ISM
    band_end = min(spec.rows, spec.ism_row + BRIGHT_ROWS_BELOW_ISM)
    img[spec.ilm_row : strip_top, :] = RETINA_MEAN
    img[spec.ism_row : band_end, :] = RETINA_MEAN
    return img


def _ellipse(spec: PhantomSpec, cr: int, cc: int, b: int, a: int) -> np.ndarray:
    rr = np.arange(spec.rows, dtype=np.float64)[:, None]
    cc_ = np.arange(spec.cols, dtype=np.float64)[None, :]
    return ((rr - cr) / b) ** 2 + ((cc_ - cc) / a) ** 2 <= 1.0


def gen_phantom(spec: PhantomSpec):
    """Generate (image, mask, ilm, ism).

    image: uint8 (rows, cols); mask: uint8 {0,1} union of cyst interiors;
    ilm/ism: per-column boundary row arrays.  Cysts are pairwise separated
    by at least 2 px so the mask has exactly n_cysts 4-connected components.
    """
    rng = SplitMix64(spec.seed)
    img = _base_intensities(spec)
    mask = np.zeros((spec.rows, spec.cols), dtype=np.uint8)
    amin, amax = spec.cyst_axis_range

    for k in range(spec.n_cysts):
        for attempt in range(_MAX_ATTEMPTS_PER_CYST):
            b = amin + rng.below(amax - amin + 1)
            a = amin + rng.below(amax - amin + 1)
            row_lo, row_hi = spec._cyst_row_range(b)
            cr = row_lo + rng.below(row_hi - row_lo + 1)
            cc = a + rng.below((spec.cols - 1 - a) - a + 1)
            # 2 px clearance keeps placed cysts from touching
            guard = _ellipse(spec, cr, cc, b + 2, a + 2)
            if np.any(mask[guard]):
                continue
            interior = _ellipse(spec, cr, cc, b, a)
            img[interior] = CYST_MEAN
            mask[interior] = 1
            break
        else:
            raise OctCystError(
                f"could not place cyst {k + 1}/{spec.n_cysts} "
                f"after {_MAX_ATTEMPTS_PER_CYST} attempts"
            )

    if spec.speckle_sigma > 0:
        noise = gaussian_array(rng.state, spec.rows * spec.cols)
        img = img * (1.0 + spec.speckle_sigma * noise.reshape(spec.rows, spec.cols))

    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    ilm = np.full(spec.cols, spec.ilm_row, dtype=np.int64)
    ism = np.full(spec.cols, spec.ism_row, dtype=np.int64)
    return img, mask, ilm, ism
