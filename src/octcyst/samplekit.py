"""Network input assembly.

`extract_layers` is the one layer stage, shared by the `layers` subcommand
and `prepare_sample`: it denoises a scan, finds the ILM and ISM, and takes
the ROI strictly between them.
Scans from different devices keep their native size: the denoised image is
normalized to [0,1], stacked with the ROI indicator, and the pair is
embedded centered in a fixed reference frame by zero-padding into a
two-channel sample.  `prepare` stores samples in a frame of the scan's own
dims; training and prediction pad them into the reference frame.  The
original dims ride along; with the frame they give the padding offset, so
predictions can be cropped back to scan coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio.formats import read_float_raster
from .errors import InvalidConfig, OctCystError
from .preprocess import denoise
from .retinagraph import roi_mask, segment_layers


@dataclass(frozen=True)
class ReferenceDims:
    rows: int = 640
    cols: int = 1024

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InvalidConfig("reference dims must be positive")


@dataclass(frozen=True, eq=False)  # identity: a field is an ndarray
class Sample:
    """Two-channel network input: normalized image + ROI indicator."""

    values: np.ndarray  # float32 (2, rows, cols), zeros outside the window
    orig_dims: tuple[int, int]

    @property
    def offset(self) -> tuple[int, int]:
        """Where the scan sits in the frame: centered, as pad_to_reference put it."""
        return centered_offset(self.values.shape[-2:], self.orig_dims)

    @property
    def roi_channel(self) -> np.ndarray:
        return self.values[1]


def centered_offset(frame: tuple[int, int], dims: tuple[int, int]) -> tuple[int, int]:
    """Top-left corner of a `dims` window centered (floor) in `frame`; an
    odd remainder goes to the bottom and right."""
    return (frame[0] - dims[0]) // 2, (frame[1] - dims[1]) // 2


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
        raise OctCystError(f"image {rows}x{cols} exceeds reference {ref.rows}x{ref.cols}")
    row_off, col_off = centered_offset((ref.rows, ref.cols), (rows, cols))
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
        raise OctCystError(
            f"window {orig_dims} at {offset} exceeds padded dims {padded.shape}"
        )
    return padded[r0 : r0 + rows, c0 : c0 + cols].copy()


def extract_layers(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layer stage: (denoised, ilm, ism, roi), where ilm/ism hold one
    boundary row per column and roi is the uint8 {0,1} strict interior
    between them, in scan coordinates."""
    denoised = denoise(image)
    ilm, ism = segment_layers(denoised)
    return denoised, ilm, ism, roi_mask(ilm, ism, denoised.shape[0])


def prepare_sample(image: np.ndarray, ref: ReferenceDims) -> Sample:
    """Full preparation: the layer stage, then normalize, stack, pad."""
    denoised, _, _, roi = extract_layers(image)
    values, _ = pad_to_reference(np.stack([normalize(denoised), roi]), ref)
    return Sample(values, denoised.shape)


def load_sample(path) -> Sample:
    """Read a two-channel OCTF raster as a sample in its own frame: its
    dims are the scan's, its offset (0, 0)."""
    values = read_float_raster(path)
    if values.shape[0] != 2:
        raise OctCystError(f"{path}: expected 2 channels, got {values.shape[0]}")
    return Sample(values, values.shape[1:])
