import numpy as np
import pytest

from octcyst.dataio import PhantomSpec, gen_phantom, write_float_raster
from octcyst.errors import OctCystError
from octcyst.preprocess import denoise
from octcyst.retinagraph import roi_mask, segment_layers
from octcyst.samplekit import (
    ReferenceDims,
    Sample,
    crop_from_reference,
    extract_layers,
    load_sample,
    normalize,
    pad_to_reference,
    prepare_sample,
)


def test_normalize_full_range():
    img = np.array([[0, 255]], dtype=np.uint8)
    out = normalize(img)
    assert out[0, 0] == 0.0 and out[0, 1] == 1.0


def test_normalize_constant_is_zero():
    assert not normalize(np.full((4, 4), 9, dtype=np.uint8)).any()


def test_normalize_midpoint():
    out = normalize(np.array([[10, 15, 20]], dtype=np.uint8))
    assert out[0, 1] == pytest.approx(0.5)


def test_pad_offsets_floor_centered():
    img = np.ones((4, 6), dtype=np.float32)
    padded, offset = pad_to_reference(img, ReferenceDims(8, 10))
    assert offset == (2, 2)
    assert padded.shape == (8, 10)
    assert padded.sum() == 24
    assert padded[2:6, 2:8].all()


def test_pad_equal_dims_identity():
    img = np.random.default_rng(0).random((8, 10)).astype(np.float32)
    padded, offset = pad_to_reference(img, ReferenceDims(8, 10))
    assert offset == (0, 0)
    assert np.array_equal(padded, img)


def test_pad_too_large():
    with pytest.raises(OctCystError, match="image 12x8 exceeds reference 8x10"):
        pad_to_reference(np.zeros((12, 8), dtype=np.float32), ReferenceDims(8, 10))


def test_pad_odd_remainder_goes_bottom_right():
    padded, offset = pad_to_reference(np.ones((3, 3), dtype=np.float32), ReferenceDims(6, 6))
    assert offset == (1, 1)
    assert padded[1:4, 1:4].all()
    assert padded[4:].sum() == 0 and padded[:, 4:].sum() == 0


def test_pad_to_reference_pads_last_two_axes():
    pair = np.random.default_rng(6).random((2, 5, 7)).astype(np.float32)
    ref = ReferenceDims(8, 10)
    padded, offset = pad_to_reference(pair, ref)
    per_channel = [pad_to_reference(channel, ref) for channel in pair]
    assert padded.shape == (2, 8, 10) and padded.dtype == np.float32
    assert all(off == offset for _, off in per_channel)
    assert np.array_equal(padded, np.stack([p for p, _ in per_channel]))
    # leading axes never count against the frame; the last two always do
    more_channels_than_rows, _ = pad_to_reference(np.ones((12, 8, 10)), ref)
    assert more_channels_than_rows.shape == (12, 8, 10)
    for shape in ((2, 9, 10), (2, 8, 11)):
        with pytest.raises(OctCystError, match="exceeds reference 8x10"):
            pad_to_reference(np.zeros(shape), ref)


def test_crop_round_trip_bitwise():
    img = np.random.default_rng(1).random((5, 7)).astype(np.float32)
    padded, offset = pad_to_reference(img, ReferenceDims(8, 10))
    back = crop_from_reference(padded, offset, (5, 7))
    assert np.array_equal(back, img)


def test_crop_full_identity():
    img = np.random.default_rng(2).random((6, 6)).astype(np.float32)
    assert np.array_equal(crop_from_reference(img, (0, 0), (6, 6)), img)


def test_crop_out_of_bounds():
    with pytest.raises(OctCystError, match="window .* exceeds padded dims"):
        crop_from_reference(np.zeros((8, 10)), (5, 5), (5, 7))


def _phantom_image(seed=3):
    spec = PhantomSpec(rows=64, cols=96, ilm_row=12, ism_row=44, n_cysts=3, seed=seed)
    img, _, _, _ = gen_phantom(spec)
    return spec, img


def test_prepare_sample_roi_between_known_rows():
    spec, img = _phantom_image()
    ref = ReferenceDims(80, 112)
    s = prepare_sample(img, ref)
    assert s.values.shape == (2, 80, 112)
    assert s.orig_dims == (64, 96)
    assert s.offset == (8, 8)
    support_rows = np.where(s.roi_channel.any(axis=1))[0] - s.offset[0]
    assert support_rows.min() >= spec.ilm_row - 1
    assert support_rows.max() <= spec.ism_row + 1


def test_prepare_sample_equals_channelwise_padding():
    # oracle: the layer chain spelled out, each channel padded on its own,
    # then stacked
    _, img = _phantom_image(seed=7)
    ref = ReferenceDims(75, 101)  # odd margins: 11 rows, 5 columns
    denoised = denoise(img)
    ilm, ism = segment_layers(denoised)
    roi = roi_mask(ilm, ism, img.shape[0])
    padded_img, offset = pad_to_reference(normalize(denoised), ref)
    padded_roi, _ = pad_to_reference(roi.astype(np.float32), ref)

    s = prepare_sample(img, ref)
    assert s.values.dtype == np.float32 and s.values.shape == (2, 75, 101)
    assert s.values.tobytes() == np.stack([padded_img, padded_roi]).tobytes()
    assert s.offset == offset == (5, 2)
    assert s.orig_dims == (64, 96)
    stage = extract_layers(img)
    for got, want in zip(stage, (denoised, ilm, ism, roi)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_prepare_sample_deterministic():
    _, img = _phantom_image()
    ref = ReferenceDims(64, 96)
    a = prepare_sample(img, ref)
    b = prepare_sample(img, ref)
    assert np.array_equal(a.values, b.values)
    assert a.offset == b.offset and a.orig_dims == b.orig_dims


def test_prepare_sample_flat_image_propagates():
    with pytest.raises(OctCystError, match="gradient field is identically zero"):
        prepare_sample(np.full((32, 32), 80, dtype=np.uint8), ReferenceDims(32, 32))


def test_prepare_sample_values_in_unit_interval():
    _, img = _phantom_image(seed=9)
    s = prepare_sample(img, ReferenceDims(96, 128))
    assert s.values.min() >= 0.0 and s.values.max() <= 1.0
    # padding region exactly zero in both channels
    frame = np.ones((96, 128), dtype=bool)
    r0, c0 = s.offset
    frame[r0 : r0 + 64, c0 : c0 + 96] = False
    assert not s.values[:, frame].any()
    roi_vals = set(np.unique(s.roi_channel).tolist())
    assert roi_vals <= {0.0, 1.0}


def test_sample_save_load_round_trip(tmp_path):
    # prepare stores a sample in a frame of its scan's dims, with no sidecar
    _, img = _phantom_image(seed=5)
    s = prepare_sample(img, ReferenceDims(64, 96))
    p = tmp_path / "s.octf"
    write_float_raster(s.values, p)
    back = load_sample(p)
    assert np.array_equal(back.values, s.values)
    assert back.offset == s.offset == (0, 0)
    assert back.orig_dims == s.orig_dims == (64, 96)
    assert [q.name for q in tmp_path.iterdir()] == ["s.octf"]


def test_sample_offset_is_the_pad_to_reference_offset():
    # odd remainders: 3 spare rows and 5 spare columns, floor-centered
    values = np.zeros((2, 7, 10), dtype=np.float32)
    _, offset = pad_to_reference(np.zeros((4, 5), dtype=np.float32), ReferenceDims(7, 10))
    assert Sample(values, (4, 5)).offset == offset == (1, 2)


def test_load_sample_rejects_wrong_channels(tmp_path):
    p = tmp_path / "s.octf"
    write_float_raster(np.zeros((3, 64, 96), dtype=np.float32), p)
    with pytest.raises(OctCystError, match="expected 2 channels, got 3"):
        load_sample(p)


@pytest.mark.parametrize("dims", [(0, 96), (64, 0)], ids=["zero-rows", "zero-cols"])
def test_load_sample_rejects_an_empty_raster(tmp_path, dims):
    # a sample's dims are its scan's, so an empty raster has no scan to frame
    p = tmp_path / "s.octf"
    write_float_raster(np.zeros((2, *dims), dtype=np.float32), p)
    with pytest.raises(OctCystError, match=rf"bad dimensions 2x{dims[0]}x{dims[1]}"):
        load_sample(p)


def test_samples_compare_by_identity():
    sample = Sample(np.zeros((2, 7, 10), dtype=np.float32), (4, 5))
    other = Sample(sample.values.copy(), sample.orig_dims)
    assert sample == sample and sample != other
    assert sample in {sample} and other not in {sample}
