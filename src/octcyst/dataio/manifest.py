"""Dataset manifests: one scan/mask record per line, tab-separated paths."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import BadRecord, EmptyManifest, MissingFile
from .formats import atomic_write_bytes


@dataclass(frozen=True)
class ManifestRecord:
    image_path: Path
    mask_path: Path
    second_mask_path: Optional[Path] = None


@dataclass(frozen=True)
class Manifest:
    records: tuple[ManifestRecord, ...]


def read_manifest(path) -> Manifest:
    """Parse a manifest file.

    Lines hold 2 or 3 tab-separated paths (image, mask[, second grader mask])
    relative to the manifest's directory; blank lines and '#' lines are
    ignored.  Every referenced file must exist.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"manifest not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise BadRecord(f"{path}: not UTF-8 text: {e}") from e
    base = path.parent
    records = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise BadRecord(f"{path}:{lineno}: expected 2 or 3 fields, got {len(fields)}")
        paths = [base / f for f in fields]
        for p in paths:
            if not p.is_file():
                raise MissingFile(f"{path}:{lineno}: referenced file missing: {p}")
        records.append(
            ManifestRecord(paths[0], paths[1], paths[2] if len(paths) == 3 else None)
        )
    if not records:
        raise EmptyManifest(f"{path}: no records")
    return Manifest(tuple(records))


def write_manifest(lines: list[tuple[str, ...]], path) -> None:
    """Write (image, mask[, mask2]) relative-path tuples, one per line."""
    text = "".join("\t".join(fields) + "\n" for fields in lines)
    atomic_write_bytes(path, text.encode("utf-8"))
