"""Dataset manifests: one scan/mask record per line, tab-separated paths."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import OctCystError
from .formats import atomic_write_bytes


@dataclass(frozen=True)
class ManifestRecord:
    image_path: Path
    mask_path: Path
    second_mask_path: Optional[Path] = None


def read_manifest(path) -> tuple[ManifestRecord, ...]:
    """Parse a manifest file into its records, in line order.

    Lines hold 2 or 3 tab-separated paths (image, mask[, second grader mask])
    relative to the manifest's directory; blank lines and '#' lines are
    ignored.  Every referenced file must exist, and no two images may share
    a stem, since each scan's outputs are named after its stem.
    """
    path = Path(path)
    if not path.is_file():
        raise OctCystError(f"manifest not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OctCystError(f"{path}: not UTF-8 text: {e}") from e
    base = path.parent
    records = []
    stem_lines = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise OctCystError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(fields)}")
        paths = [base / f for f in fields]
        for p in paths:
            if not p.is_file():
                raise OctCystError(f"{path}:{lineno}: referenced file missing: {p}")
        stem = paths[0].stem
        if stem in stem_lines:
            raise OctCystError(
                f"{path}:{lineno}: image stem {stem!r} repeats line {stem_lines[stem]}"
            )
        stem_lines[stem] = lineno
        records.append(
            ManifestRecord(paths[0], paths[1], paths[2] if len(paths) == 3 else None)
        )
    if not records:
        raise OctCystError(f"{path}: no records")
    return tuple(records)


def write_manifest(lines: list[tuple[str, ...]], path) -> None:
    """Write (image, mask[, mask2]) relative-path tuples, one per line."""
    text = "".join("\t".join(fields) + "\n" for fields in lines)
    atomic_write_bytes(path, text.encode("utf-8"))
