# ensures the tests directory is importable for shared helpers (fdcheck)
import struct

import pytest

from octcyst.dataio.formats import format_settings
from octcyst.tensornet import UNetConfig
from octcyst.trainer import CHECKPOINT_MAGIC, CHECKPOINT_VERSION


@pytest.fixture
def overflowing_checkpoint(tmp_path):
    """A checkpoint whose one tensor claims dims (65536,)*4: 2**64 floats,
    a count that wraps to 0 in int64, and no values."""
    config = format_settings(UNetConfig()).encode("utf-8")
    path = tmp_path / "overflow.bin"
    path.write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(config)) + config
        + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B4I", 4, *(65536,) * 4)
    )
    return path
