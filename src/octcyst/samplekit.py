"""Network input assembly.

`extract_layers` is the one layer stage, shared by the `layers` subcommand
and `prepare_sample`: it denoises a scan, finds the ILM and ISM, and takes
the ROI strictly between them.
Scans from different devices keep their native size: the denoised image is
normalized to [0,1], stacked with the ROI indicator, and the pair is
embedded centered in a fixed reference frame by zero-padding into a
two-channel sample.  The padding offset and original dims ride along so
predictions can be cropped back to scan coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio.formats import atomic_write_bytes, read_float_raster, write_float_raster
from .errors import DimMismatch, InvalidConfig, TooLarge, WindowOutOfBounds
from .preprocess import DEFAULT_SIGMA_D, denoise
from .retinagraph import DEFAULT_W_MIN, roi_mask, segment_layers


@dataclass(frozen=True)
class ReferenceDims:
    rows: int = 640
    cols: int = 1024

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InvalidConfig("reference dims must be positive")


@dataclass(frozen=True)
class Sample:
    """Two-channel network input: normalized image + ROI indicator."""

    values: np.ndarray  # float32 (2, rows, cols), zeros outside the window
    offset: tuple[int, int]
    orig_dims: tuple[int, int]

    @property
    def roi_channel(self) -> np.ndarray:
        return self.values[1]


def normalize(image: np.ndarray) -> np.ndarray:
    """Min-max scale to [0,1] as float32; a constant image maps to zeros."""
    img = np.asarray(image, dtype=np.float64)
    lo, hi = img.min(), img.max()
    if hi == lo:
        return np.zeros(img.shape, dtype=np.float32)
    return ((img - lo) / (hi - lo)).astype(np.float32)


def pad_to_reference(
    image: np.ndarray, ref: ReferenceDims
) -> tuple[np.ndarray, tuple[int, int]]:
    """Embed the last two axes centered (floor offsets) in a zero frame of
    the reference size; leading axes, such as channels, are kept."""
    img = np.asarray(image, dtype=np.float32)
    rows, cols = img.shape[-2:]
    if rows > ref.rows or cols > ref.cols:
        raise TooLarge(f"image {rows}x{cols} exceeds reference {ref.rows}x{ref.cols}")
    row_off = (ref.rows - rows) // 2
    col_off = (ref.cols - cols) // 2
    padded = np.zeros(img.shape[:-2] + (ref.rows, ref.cols), dtype=np.float32)
    padded[..., row_off : row_off + rows, col_off : col_off + cols] = img
    return padded, (row_off, col_off)


def crop_from_reference(
    padded: np.ndarray, offset: tuple[int, int], orig_dims: tuple[int, int]
) -> np.ndarray:
    """Inverse of pad_to_reference: exact window extraction."""
    rows, cols = orig_dims
    r0, c0 = offset
    if r0 < 0 or c0 < 0 or r0 + rows > padded.shape[0] or c0 + cols > padded.shape[1]:
        raise WindowOutOfBounds(
            f"window {orig_dims} at {offset} exceeds padded dims {padded.shape}"
        )
    return padded[r0 : r0 + rows, c0 : c0 + cols].copy()


def extract_layers(
    image: np.ndarray,
    sigma_d: float = DEFAULT_SIGMA_D,
    w_min: float = DEFAULT_W_MIN,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layer stage: (denoised, ilm, ism, roi), where ilm/ism hold one
    boundary row per column and roi is the uint8 {0,1} strict interior
    between them, in scan coordinates."""
    denoised = denoise(image, sigma_d)
    ilm, ism = segment_layers(denoised, w_min)
    return denoised, ilm, ism, roi_mask(ilm, ism, *denoised.shape)


def prepare_sample(
    image: np.ndarray,
    ref: ReferenceDims,
    sigma_d: float = DEFAULT_SIGMA_D,
    w_min: float = DEFAULT_W_MIN,
) -> Sample:
    """Full preparation: the layer stage, then normalize, stack, pad."""
    denoised, _, _, roi = extract_layers(image, sigma_d, w_min)
    values, offset = pad_to_reference(np.stack([normalize(denoised), roi]), ref)
    return Sample(values, offset, denoised.shape)


_META_RE = re.compile(r"^offset=(\d+),(\d+) orig=(\d+),(\d+)$")


def save_sample(sample: Sample, path) -> None:
    """Persist as a 2-channel OCTF raster plus a one-line .meta sidecar."""
    write_float_raster(sample.values, path)
    meta = (
        f"offset={sample.offset[0]},{sample.offset[1]} "
        f"orig={sample.orig_dims[0]},{sample.orig_dims[1]}\n"
    )
    atomic_write_bytes(str(path) + ".meta", meta.encode("utf-8"))


def load_sample(path) -> Sample:
    values = read_float_raster(path)
    if values.shape[0] != 2:
        raise DimMismatch(f"{path}: expected 2 channels, got {values.shape[0]}")
    try:
        text = Path(str(path) + ".meta").read_text(encoding="utf-8").strip()
    except UnicodeDecodeError as e:
        raise DimMismatch(f"{path}.meta: not UTF-8 text: {e}") from e
    m = _META_RE.match(text)
    if m is None:
        raise DimMismatch(f"{path}.meta: malformed sidecar line: {text!r}")
    r0, c0, rows, cols = (int(g) for g in m.groups())
    return Sample(values, (r0, c0), (rows, cols))
