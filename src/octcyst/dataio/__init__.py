from .formats import (
    read_float_raster,
    read_mask_pgm,
    read_pgm,
    write_float_raster,
    write_mask_pgm,
    write_pgm,
)
from .manifest import ManifestRecord, read_manifest, write_manifest
from .phantom import PhantomSpec, gen_phantom

__all__ = [
    "ManifestRecord",
    "PhantomSpec",
    "gen_phantom",
    "read_float_raster",
    "read_manifest",
    "read_mask_pgm",
    "read_pgm",
    "write_float_raster",
    "write_manifest",
    "write_mask_pgm",
    "write_pgm",
]
