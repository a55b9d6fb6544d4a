"""Bit-exact on-disk formats: binary PGM (P5), the OCTF float raster, and
the name=value settings text of config files and checkpoints.

PGM carries 8-bit grayscale scans and 0/255 masks; OCTF carries float32
rasters (probability maps, prepared two-channel samples).  Both round-trip
losslessly and are written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import re
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from ..errors import InvalidConfig, OctCystError

OCTF_MAGIC = b"OCTF"
OCTF_VERSION = 1


def atomic_write_bytes(path, data: bytes) -> None:
    """Write bytes to `path` via a uniquely named temp file in the same
    directory (umask-derived mode), removed if the write fails."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise OctCystError(f"cannot write {path}: {e}") from e


def _pgm_tokens(data: bytes):
    """Yield header tokens, skipping whitespace and '#' comment lines."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < n and data[j : j + 1] not in b" \t\r\n":
                j += 1
            yield data[i:j], j
            i = j


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) as a uint8 array of (rows, cols)."""
    data = Path(path).read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic != b"P5":
            raise OctCystError(f"{path}: expected P5, got {magic!r}")
        fields = []
        for _ in range(3):
            tok, end = next(tokens)
            fields.append(tok)
    except StopIteration:
        raise OctCystError(f"{path}: incomplete header") from None
    # int() alone would also take signs and underscores
    if not all(t.isdigit() for t in fields):
        raise OctCystError(f"{path}: non-numeric header fields")
    cols, rows, maxval = (int(t) for t in fields)
    if cols < 1 or rows < 1:
        raise OctCystError(f"{path}: bad dimensions {cols}x{rows}")
    if maxval != 255:
        raise OctCystError(f"{path}: maxval {maxval}, only 255 supported")
    # exactly one whitespace byte separates header from raster data
    raster = data[end + 1 :]
    if len(raster) < rows * cols:
        raise OctCystError(f"{path}: expected {rows * cols} pixels, got {len(raster)}")
    if len(raster) > rows * cols:
        raise OctCystError(f"{path}: {len(raster) - rows * cols} bytes after the raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(rows, cols).copy()


def write_pgm(image: np.ndarray, path) -> None:
    """Write a (rows, cols) uint8 image; header is exactly P5\\n<cols> <rows>\\n255\\n."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise OctCystError(f"expected 2-D image, got shape {img.shape}")
    rows, cols = img.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + img.astype(np.uint8).tobytes())


def write_mask_pgm(mask: np.ndarray, path) -> None:
    """Write a {0,1} mask as a PGM with 0/255 values."""
    m = np.asarray(mask)
    write_pgm((m != 0).astype(np.uint8) * 255, path)


def read_mask_pgm(path) -> np.ndarray:
    """Read a PGM and binarize: any nonzero byte becomes 1."""
    return (read_pgm(path) != 0).astype(np.uint8)


def write_float_raster(values: np.ndarray, path) -> None:
    """Write an OCTF raster.

    Accepts (rows, cols) for a single channel or (channels, rows, cols);
    data is stored channel-major as little-endian float32.
    """
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise OctCystError(f"expected 2-D or 3-D raster, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise OctCystError(f"raster for {path} contains non-finite values")
    channels, rows, cols = arr.shape
    header = OCTF_MAGIC + struct.pack("<4I", OCTF_VERSION, rows, cols, channels)
    atomic_write_bytes(path, header + arr.astype("<f4").tobytes())


def read_float_raster(path) -> np.ndarray:
    """Read an OCTF raster as a float32 array of (channels, rows, cols); the
    file must hold exactly the values its header declares, all finite."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != OCTF_MAGIC:
        raise OctCystError(f"{path}: not an OCTF raster")
    if len(data) < 20:
        raise OctCystError(f"{path}: header truncated")
    version, rows, cols, channels = struct.unpack("<4I", data[4:20])
    if version != OCTF_VERSION:
        raise OctCystError(f"{path}: version {version}, expected {OCTF_VERSION}")
    if 0 in (rows, cols, channels):
        raise OctCystError(f"{path}: bad dimensions {channels}x{rows}x{cols}")
    count = rows * cols * channels
    raster = data[20:]
    if len(raster) < 4 * count:
        raise OctCystError(f"{path}: expected {count} floats, got {len(raster) // 4}")
    if len(raster) > 4 * count:
        raise OctCystError(f"{path}: {len(raster) - 4 * count} bytes after the raster")
    values = np.frombuffer(raster, dtype="<f4").reshape(channels, rows, cols).astype(np.float32)
    if not np.all(np.isfinite(values)):
        raise OctCystError(f"{path}: raster contains non-finite values")
    return values


# int() and float() alone would also take signs, underscores and non-ASCII digits
_INT_RE = re.compile(r"-?[0-9]+")
_FLOAT_RE = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|-?inf|nan")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _parse_value(text: str, default):
    """`text` as the type of `default`: int, float, or a comma-separated
    tuple of the type of the default's first element."""
    if isinstance(default, tuple):
        return tuple(_parse_value(part.strip(), default[0]) for part in text.split(","))
    spelling = _FLOAT_RE if isinstance(default, float) else _INT_RE
    if spelling.fullmatch(text) is None:
        raise InvalidConfig(f"expected {type(default).__name__}, got {text!r}")
    return type(default)(text)


def format_settings(settings) -> str:
    """One name=value line per field of the dataclass `settings`, in field
    order; parse_settings reads it back."""
    return "".join(
        f"{f.name}={_format_value(getattr(settings, f.name))}\n" for f in fields(settings)
    )


def parse_settings(text: str, defaults, where) -> dict:
    """Typed values of the `name = value` lines in `text`, keyed by the
    fields of the dataclass `defaults`, whose values give each field's type.
    Blank lines and '#' lines are skipped.  Raises InvalidConfig for a name
    that is not a field, a malformed line, a bad value or a repeated name;
    messages start with `where` and the line number."""
    defaults_by_name = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"{where}:{lineno}: expected name = value, got {line!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        if name not in defaults_by_name:
            raise InvalidConfig(f"{where}:{lineno}: unknown key {name!r}")
        if name in values:
            raise InvalidConfig(f"{where}:{lineno}: {name} set twice")
        try:
            values[name] = _parse_value(value, defaults_by_name[name])
        except ValueError as e:
            raise InvalidConfig(f"{where}:{lineno}: bad value for {name}: {e}") from e
    return values
