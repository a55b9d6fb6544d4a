import os
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from octcyst.dataio import (
    PhantomSpec,
    gen_phantom,
    read_float_raster,
    read_manifest,
    read_mask_pgm,
    read_pgm,
    write_float_raster,
    write_mask_pgm,
    write_pgm,
)
from octcyst.errors import (
    BadMagic,
    BadRecord,
    EmptyManifest,
    IoFailure,
    MalformedHeader,
    MissingFile,
    NonFiniteValue,
    ParseError,
    PlacementFailure,
    TruncatedData,
    UnknownKey,
    UnsupportedMaxval,
    VersionMismatch,
)
from octcyst.dataio.formats import format_settings, parse_settings


# --- PGM --------------------------------------------------------------------


def test_read_pgm_single_space_header(tmp_path):
    data = b"P5 6 4 255\n" + bytes(range(24))
    p = tmp_path / "a.pgm"
    p.write_bytes(data)
    img = read_pgm(p)
    assert img.shape == (4, 6)
    assert img[0, 0] == 0
    assert img[3, 5] == 23


def test_pgm_round_trip(tmp_path):
    img = np.arange(35, dtype=np.uint8).reshape(5, 7)
    p = tmp_path / "a.pgm"
    write_pgm(img, p)
    assert np.array_equal(read_pgm(p), img)


def test_pgm_unsupported_maxval(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5 2 2 65535\n" + bytes(8))
    with pytest.raises(UnsupportedMaxval):
        read_pgm(p)


def test_pgm_bad_magic(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P6 2 2 255\n" + bytes(12))
    with pytest.raises(MalformedHeader):
        read_pgm(p)


def test_pgm_truncated(tmp_path):
    header = b"P5 4 4 255\n"
    data = header + bytes(range(16))
    p = tmp_path / "a.pgm"
    for cut in range(len(data)):
        p.write_bytes(data[:cut])
        # a cut inside "P5 4 4 255" leaves a bad or partial header
        bad_header = cut < len(header) - 1
        with pytest.raises((MalformedHeader, UnsupportedMaxval) if bad_header else TruncatedData):
            read_pgm(p)


def test_pgm_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "a.pgm"
    write_pgm(np.arange(12, dtype=np.uint8).reshape(3, 4), p)
    p.write_bytes(p.read_bytes() + bytes(4))
    with pytest.raises(MalformedHeader, match="4 bytes after"):
        read_pgm(p)


def test_write_pgm_exact_bytes_1x1(tmp_path):
    # header is exactly "P5\n1 1\n255\n" (11 bytes) + 1 data byte
    p = tmp_path / "a.pgm"
    write_pgm(np.array([[42]], dtype=np.uint8), p)
    data = p.read_bytes()
    assert data == b"P5\n1 1\n255\n\x2a"
    assert data[-1] == 0x2A


def test_mask_pgm_encoding(tmp_path):
    mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    p = tmp_path / "m.pgm"
    write_mask_pgm(mask, p)
    raw = read_pgm(p)
    assert set(raw.ravel().tolist()) == {0, 255}
    assert np.array_equal(read_mask_pgm(p), mask)


def test_pgm_write_deterministic(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_pgm(img, tmp_path / "a.pgm")
    write_pgm(img, tmp_path / "b.pgm")
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_comment_in_header(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n# comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert np.array_equal(read_pgm(p), np.array([[1, 2], [3, 4]], dtype=np.uint8))


# --- OCTF -------------------------------------------------------------------


def test_octf_exact_bytes_1x1x1(tmp_path):
    p = tmp_path / "a.octf"
    write_float_raster(np.array([[0.5]], dtype=np.float32), p)
    data = p.read_bytes()
    assert len(data) == 24
    assert data[:4] == b"OCTF"
    assert struct.unpack("<4I", data[4:20]) == (1, 1, 1, 1)
    assert data[20:] == b"\x00\x00\x00\x3f"


def test_octf_round_trip(tmp_path):
    arr = np.random.default_rng(0).random((3, 4, 5)).astype(np.float32)
    p = tmp_path / "a.octf"
    write_float_raster(arr, p)
    back = read_float_raster(p)
    assert back.shape == (3, 4, 5)
    assert np.array_equal(back, arr)


def test_octf_bad_magic(tmp_path):
    p = tmp_path / "a.octf"
    p.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(BadMagic):
        read_float_raster(p)


def test_octf_version_mismatch(tmp_path):
    p = tmp_path / "a.octf"
    p.write_bytes(b"OCTF" + struct.pack("<4I", 2, 1, 1, 1) + bytes(4))
    with pytest.raises(VersionMismatch):
        read_float_raster(p)


def test_octf_truncated(tmp_path):
    data = b"OCTF" + struct.pack("<4I", 1, 2, 2, 1) + np.arange(4, dtype="<f4").tobytes()
    p = tmp_path / "a.octf"
    for cut in range(len(data)):
        p.write_bytes(data[:cut])
        with pytest.raises(BadMagic if cut < 4 else TruncatedData):
            read_float_raster(p)


def test_octf_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "a.octf"
    write_float_raster(np.ones((2, 3), dtype=np.float32), p)
    p.write_bytes(p.read_bytes() + bytes(8))
    with pytest.raises(MalformedHeader, match="8 bytes after"):
        read_float_raster(p)


def test_octf_rejects_non_finite(tmp_path):
    with pytest.raises(NonFiniteValue):
        write_float_raster(np.array([[np.nan]], dtype=np.float32), tmp_path / "a.octf")
    p = tmp_path / "b.octf"
    write_float_raster(np.zeros((2, 2), dtype=np.float32), p)
    data = p.read_bytes()
    for bad in (np.nan, np.inf, -np.inf):
        p.write_bytes(data[:-4] + np.array([bad], dtype="<f4").tobytes())
        with pytest.raises(NonFiniteValue):
            read_float_raster(p)


# --- atomic writes ------------------------------------------------------------


def test_atomic_write_ignores_stale_tmp_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "a.pgm.tmp").mkdir()
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    write_pgm(img, tmp_path / "a.pgm")
    write_pgm(img, tmp_path / "a.pgm")
    assert np.array_equal(read_pgm(tmp_path / "a.pgm"), img)
    assert sorted(q.name for q in tmp_path.iterdir()) == ["a.pgm", "a.pgm.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / "a.pgm").stat().st_mode & 0o777 == 0o666 & ~umask


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    (tmp_path / "a.pgm").mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(IoFailure):
        write_pgm(np.zeros((2, 2), dtype=np.uint8), tmp_path / "a.pgm")
    assert [q.name for q in tmp_path.iterdir()] == ["a.pgm"]


# --- manifest ---------------------------------------------------------------


def _touch(tmp_path, *names):
    for n in names:
        (tmp_path / n).write_bytes(b"")


def test_manifest_two_fields(tmp_path):
    _touch(tmp_path, "a.pgm", "b.pgm")
    mf = tmp_path / "m.txt"
    mf.write_text("a.pgm\tb.pgm\n")
    m = read_manifest(mf)
    assert len(m) == 1
    assert m[0].second_mask_path is None
    assert m[0].image_path.name == "a.pgm"


def test_manifest_three_fields(tmp_path):
    _touch(tmp_path, "a.pgm", "b.pgm", "c.pgm")
    mf = tmp_path / "m.txt"
    mf.write_text("a.pgm\tb.pgm\tc.pgm\n")
    rec = read_manifest(mf)[0]
    assert rec.second_mask_path is not None
    assert rec.second_mask_path.name == "c.pgm"


def test_manifest_only_comments_is_empty(tmp_path):
    mf = tmp_path / "m.txt"
    mf.write_text("# nothing\n\n# more\n")
    with pytest.raises(EmptyManifest):
        read_manifest(mf)


def test_manifest_bad_field_count(tmp_path):
    mf = tmp_path / "m.txt"
    mf.write_text("only_one_field\n")
    with pytest.raises(BadRecord):
        read_manifest(mf)


def test_manifest_missing_reference(tmp_path):
    _touch(tmp_path, "a.pgm")
    mf = tmp_path / "m.txt"
    mf.write_text("a.pgm\tmissing.pgm\n")
    with pytest.raises(MissingFile):
        read_manifest(mf)


def test_manifest_preserves_order(tmp_path):
    names = [f"x{i}.pgm" for i in range(6)]
    _touch(tmp_path, *names)
    mf = tmp_path / "m.txt"
    mf.write_text("".join(f"{n}\t{n}\n" for n in names))
    m = read_manifest(mf)
    assert [r.image_path.name for r in m] == names


def test_manifest_not_utf8_is_bad_record(tmp_path):
    _touch(tmp_path, "a.pgm", "b.pgm")
    mf = tmp_path / "m.txt"
    mf.write_bytes(b"a.pgm\tb.pgm\n\xff.pgm\tb.pgm\n")
    with pytest.raises(BadRecord, match="UTF-8"):
        read_manifest(mf)


# --- settings text ----------------------------------------------------------


@dataclass(frozen=True)
class _Settings:
    rate: float = 0.5
    count: int = 3
    flag: bool = True
    sizes: tuple[int, ...] = (1, 2)
    probs: tuple[float, ...] = (0.25,)


def test_format_settings_one_line_per_field_in_order():
    text = format_settings(_Settings(flag=False, sizes=(np.int64(4), 8), probs=(np.float64(0.1),)))
    assert text == "rate=0.5\ncount=3\nflag=off\nsizes=4,8\nprobs=0.1\n"


def test_parse_settings_round_trips_format_settings():
    s = _Settings(rate=1e-5, count=-7, flag=False, sizes=(16,), probs=(0.1, 0.2, 0.3))
    values = parse_settings(format_settings(s), _Settings(), "s")
    assert _Settings(**values) == s
    assert type(values["count"]) is int and type(values["probs"][0]) is float


def test_parse_settings_types_from_defaults_and_skips_comments():
    text = "# comment\n\n  rate = 2 \nflag = on\nsizes = 3, 5,7\n"
    values = parse_settings(text, _Settings(), "s")
    assert values == {"rate": 2.0, "flag": True, "sizes": (3, 5, 7)}
    assert type(values["rate"]) is float


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("count = 1\nbogus = 2\n", UnknownKey, "s:2: unknown key 'bogus'"),
        ("count = 1\ncount = 2\n", ParseError, "s:2: count set twice"),
        ("count\n", ParseError, "s:1: expected name = value"),
        ("count = 1.5\n", ParseError, "s:1: bad value for count"),
        ("flag = yes\n", ParseError, "s:1: bad value for flag"),
        ("sizes = 1,,2\n", ParseError, "s:1: bad value for sizes"),
    ],
)
def test_parse_settings_rejects(text, error, message):
    with pytest.raises(error, match=message):
        parse_settings(text, _Settings(), "s")


# --- phantom ----------------------------------------------------------------


def count_components_4conn(mask: np.ndarray) -> int:
    """Flood-fill component counter (independent oracle)."""
    mask = mask.astype(bool)
    seen = np.zeros_like(mask)
    rows, cols = mask.shape
    n = 0
    for r in range(rows):
        for c in range(cols):
            if mask[r, c] and not seen[r, c]:
                n += 1
                q = deque([(r, c)])
                seen[r, c] = True
                while q:
                    i, j = q.popleft()
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        ni, nj = i + di, j + dj
                        if 0 <= ni < rows and 0 <= nj < cols and mask[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            q.append((ni, nj))
    return n


def _spec(**kw):
    base = dict(rows=64, cols=96, ilm_row=12, ism_row=44, n_cysts=3, seed=11)
    base.update(kw)
    return PhantomSpec(**base)


def test_phantom_no_cysts_zero_mask():
    _, mask, _, _ = gen_phantom(_spec(n_cysts=0))
    assert mask.sum() == 0


def test_phantom_deterministic():
    img1, mask1, _, _ = gen_phantom(_spec())
    img2, mask2, _, _ = gen_phantom(_spec())
    assert np.array_equal(img1, img2)
    assert np.array_equal(mask1, mask2)


def test_phantom_component_count_matches_flood_fill():
    for seed in (1, 2, 3, 4, 5):
        _, mask, _, _ = gen_phantom(_spec(seed=seed))
        assert count_components_4conn(mask) == 3


def test_phantom_mask_inside_band():
    _, mask, ilm, ism = gen_phantom(_spec(seed=21, n_cysts=4))
    rows = np.where(mask.any(axis=1))[0]
    assert rows.min() > ilm[0]
    assert rows.max() < ism[0]


def test_phantom_layer_paths_are_spec_rows():
    spec = _spec()
    _, _, ilm, ism = gen_phantom(spec)
    assert np.all(ilm == spec.ilm_row)
    assert np.all(ism == spec.ism_row)
    assert ilm.shape == (spec.cols,)


def test_phantom_clamps_to_byte_range():
    img, _, _, _ = gen_phantom(_spec(speckle_sigma=2.0, seed=8))
    assert img.dtype == np.uint8


def test_phantom_placement_failure():
    # band barely fits one cyst; ten cannot be placed
    spec = PhantomSpec(
        rows=30, cols=20, ilm_row=5, ism_row=20, n_cysts=10,
        cyst_axis_range=(4, 4), seed=1,
    )
    with pytest.raises(PlacementFailure):
        gen_phantom(spec)


def test_phantom_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(rows=64, cols=96, ilm_row=40, ism_row=12, n_cysts=0)
    with pytest.raises(ValueError):
        PhantomSpec(rows=64, cols=96, ilm_row=12, ism_row=44, n_cysts=1,
                    cyst_axis_range=(30, 30))
