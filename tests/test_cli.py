import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import octcyst
from octcyst.cli import (
    Config, _build_parser, _load_samples, _train_config, _unet_config, parse_config, run,
)
from octcyst.dataio import (
    read_float_raster, read_mask_pgm, read_pgm, write_float_raster, write_mask_pgm, write_pgm,
)
from octcyst.dataio.formats import format_settings
from octcyst.errors import InvalidConfig
from octcyst.metrics import aggregate_stats
from octcyst.samplekit import (
    ReferenceDims, crop_from_reference, load_sample, pad_to_reference, prepare_sample,
)
from octcyst.trainer import predict, save_checkpoint, train


TINY_CONFIG = """\
ref_rows = 32
ref_cols = 32
base_channels = 4
depth = 2
aspp_rates = 1,2
dropout = 0.1,0.1,0.2
batch_size = 4
epochs = 2
seed = 3
"""


def _write_config(tmp_path, text=TINY_CONFIG):
    p = tmp_path / "tiny.cfg"
    p.write_text(text)
    return str(p)


def _make_phantoms(tmp_path, count=4, seed=5):
    out = tmp_path / "data"
    code = run(
        [
            "phantom", "--count", str(count), "--seed", str(seed),
            "--rows", "32", "--cols", "32", "--n-cysts", "2",
            "--axis-min", "1", "--axis-max", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def _two_grader_manifest(data, count):
    """manifest2.txt: each scan of `data` with its mask as both graders'."""
    lines = []
    for i in range(count):
        mask = read_mask_pgm(data / f"mask_{i:03d}.pgm")
        write_mask_pgm(mask, data / f"mask2_{i:03d}.pgm")
        lines.append(f"img_{i:03d}.pgm\tmask_{i:03d}.pgm\tmask2_{i:03d}.pgm")
    (data / "manifest2.txt").write_text("".join(l + "\n" for l in lines))
    return data / "manifest2.txt"


# --- config ------------------------------------------------------------------


def test_parse_config_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("")
    assert parse_config(p) == Config()


def test_parse_config_single_override(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = 7\n")
    cfg = parse_config(p)
    assert cfg.epochs == 7
    assert cfg.batch_size == Config().batch_size


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("foo = 1\n")
    with pytest.raises(InvalidConfig, match="unknown key 'foo'"):
        parse_config(p)


def test_parse_config_bad_value(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = ten\n")
    with pytest.raises(InvalidConfig, match="bad value for epochs"):
        parse_config(p)


def test_parse_config_lists_and_booleans(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("aspp_rates = 1,2,4\ndropout = 0.1,0.2,0.3\n")
    cfg = parse_config(p)
    assert cfg.aspp_rates == (1, 2, 4)
    assert cfg.dropout == (0.1, 0.2, 0.3)


def test_config_error_exit_code(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("foo = 1\n")
    out = tmp_path / "o"
    assert run(["phantom", "--config", str(p), "--out", str(out)]) == 2


def test_config_cross_field_error_exit_code(tmp_path):
    # depth 2 needs 3 dropout rates
    p = tmp_path / "c.cfg"
    p.write_text("depth = 2\n")
    out = tmp_path / "o"
    assert run(["phantom", "--config", str(p), "--out", str(out)]) == 2


def test_config_ref_dims_not_divisible_exit_code(tmp_path):
    # depth 3 halves the frame three times: 100 rows is not a multiple of 8
    out = tmp_path / "o"
    for key in ("ref_rows", "ref_cols"):
        p = tmp_path / f"{key}.cfg"
        p.write_text(f"{key} = 100\ndepth = 3\n")
        assert run(["phantom", "--config", str(p), "--count", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_parse_config_repeated_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("seed = 3\nepochs = 2\nseed = 4\n")
    with pytest.raises(InvalidConfig, match="seed set twice"):
        parse_config(p)


def test_parse_config_not_utf8(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_bytes(b"seed = 3\n# caf\xe9\n")
    with pytest.raises(InvalidConfig, match="not UTF-8"):
        parse_config(p)


@pytest.mark.parametrize(
    "text",
    [
        b"batch_size = 0\n",
        b"ref_rows = 0\n",
        b"seed = 3\nseed = 4\n",
        b"seed = 3\n# \xff\n",
        b"w_min = 1e-5\n",
        b"threshold = 0.5\n",
        b"roi_clamp = on\n",
        b"sigma_d = 2.0\n",
        b"learning_rate = 0.001\n",
        b"dropout = 0.1,0.1,0.2,nan\n",
        b"dropout = 0.1,0.1,0.2,inf\n",
        b"epochs = 0\n",
        b"epochs = -3\n",
        "seed = \u0665\n".encode("utf-8"),
        b"epochs = 1_0\n",
        b"dropout = 0.1,0.1,0.2,+1e-3\n",
    ],
    ids=["batch_size", "ref_rows", "repeated-key", "not-utf8", "removed-w_min",
         "removed-threshold", "removed-roi_clamp", "removed-sigma_d", "removed-learning_rate",
         "dropout-nan", "dropout-inf", "epochs-0", "epochs-negative",
         "seed-arabic-indic-digit", "epochs-underscore", "dropout-plus-sign"],
)
def test_config_value_error_exits_2_before_out_exists(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_bytes(text)
    out = tmp_path / "o"
    # the default phantom geometry fits, so only the config can fail the run
    code = run(["phantom", "--config", str(p), "--count", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_denoise_with_a_window_far_larger_than_the_scan_finishes(tmp_path):
    # the 9x9 window on a 3x3 scan: only the offsets inside the scan are visited
    scan = tmp_path / "scan.pgm"
    write_pgm(np.random.default_rng(4).integers(0, 256, (3, 3), dtype=np.uint8), scan)
    out = tmp_path / "o"
    src = str(Path(octcyst.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", "from octcyst.cli import main; main()",
         "denoise", "--in", str(scan), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), check=True, timeout=30,
    )
    assert read_pgm(out / "scan_denoised.pgm").shape == (3, 3)


README = Path(__file__).parents[1] / "README.md"


def test_readme_lists_every_key_with_its_production_default():
    readme = README.read_text(encoding="utf-8")
    assert f"```ini\n{format_settings(Config())}```\n" in readme


def test_every_readme_command_line_parses():
    # a flag the program no longer takes must not linger in the walkthrough
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [
        line for block in blocks for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("octcyst ")
    ]
    assert len(lines) == 7
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_train_config_value_error_exits_2(tmp_path):
    data = _make_phantoms(tmp_path, count=2)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"),
                "--config", _write_config(tmp_path), "--out", str(prep)]) == 0
    out = tmp_path / "model"
    cfg = _write_config(tmp_path, TINY_CONFIG.replace("batch_size = 4", "batch_size = 0"))
    assert run(["train", "--samples", str(prep), "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


# --- flags -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv", [["prepare"], ["evaluate", "--pred", "p"], ["iov"]], ids=lambda a: a[0]
)
def test_manifest_is_required(tmp_path, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert run(argv + ["--manifest", str(tmp_path / "m.txt"), "--out", str(out)]) == 1


@pytest.mark.parametrize("command", [["train"], ["predict", "--checkpoint", "c.bin"]],
                         ids=lambda a: a[0])
def test_train_and_predict_take_exactly_one_input(tmp_path, command):
    # --samples is required, and preparing in memory from --manifest is gone
    out = tmp_path / "o"
    manifest, samples = ["--manifest", str(tmp_path / "m.txt")], ["--samples", str(tmp_path)]
    for inputs in ([], manifest, manifest + samples, samples + manifest):
        assert run(command + inputs + ["--out", str(out)]) == 2
    assert not out.exists()
    assert run(command + samples + ["--out", str(out)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["denoise", "--in", "x.pgm"],
        ["layers", "--in", "x.pgm"],
        ["prepare", "--manifest", "m.txt"],
        ["train", "--samples", "s"],
        ["predict", "--checkpoint", "c.bin", "--samples", "s"],
        ["evaluate", "--manifest", "m.txt", "--pred", "p"],
        ["iov", "--manifest", "m.txt"],
    ],
    ids=lambda a: a[0],
)
def test_seed_flag_only_where_it_is_read(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    assert run(argv + ["--seed", "3", "--out", str(out)]) == 2
    assert not out.exists()
    assert run(argv + ["--out", str(out)]) == 1


# --- phantom -----------------------------------------------------------------


def test_phantom_writes_pairs_and_manifest(tmp_path):
    out = _make_phantoms(tmp_path, count=5)
    for i in range(5):
        assert (out / f"img_{i:03d}.pgm").is_file()
        assert (out / f"mask_{i:03d}.pgm").is_file()
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 5
    assert manifest[0] == "img_000.pgm\tmask_000.pgm"


def test_phantom_deterministic(tmp_path):
    a = _make_phantoms(tmp_path / "a", seed=9)
    b = _make_phantoms(tmp_path / "b", seed=9)
    assert (a / "img_000.pgm").read_bytes() == (b / "img_000.pgm").read_bytes()
    assert (a / "mask_002.pgm").read_bytes() == (b / "mask_002.pgm").read_bytes()


def test_phantom_writes_only_inside_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _make_phantoms(tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"data"}


@pytest.mark.parametrize(
    "flags",
    [["--count", "0"], ["--rows", "32", "--cols", "32"], ["--rows", "34", "--count", "4"]],
    ids=["count-0", "first-scan-geometry", "third-scan-geometry"],
)
def test_phantom_setting_error_leaves_no_out_directory(tmp_path, flags):
    # with --rows 34 and seed 1 the first two scans fit and the third does not
    out = tmp_path / "o"
    assert run(["phantom", *flags, "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_phantom_placement_failure_writes_no_scan(tmp_path):
    # the thirteenth scan's cysts do not fit
    out = tmp_path / "o"
    assert run(["phantom", "--rows", "40", "--cols", "32", "--count", "20", "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


def test_phantom_placement_failure_names_the_scan(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["phantom", "--rows", "40", "--cols", "32", "--count", "20", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "scan 12 (img_012.pgm)" in err
    assert "could not place cyst 3/3" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_runtime_error_exits_1(tmp_path):
    out = tmp_path / "o"
    code = run(["prepare", "--manifest", str(tmp_path / "nope.txt"), "--out", str(out)])
    assert code == 1


# --- denoise / layers ----------------------------------------------------------


def test_denoise_command(tmp_path):
    data = _make_phantoms(tmp_path)
    out = tmp_path / "den"
    code = run(["denoise", "--in", str(data / "img_000.pgm"), "--out", str(out)])
    assert code == 0
    den = read_pgm(out / "img_000_denoised.pgm")
    assert den.shape == (32, 32)


def test_layers_command_overlay_and_roi(tmp_path):
    data = _make_phantoms(tmp_path)
    out = tmp_path / "lay"
    code = run(["layers", "--in", str(data / "img_001.pgm"), "--out", str(out)])
    assert code == 0
    overlay = read_pgm(out / "img_001_overlay.pgm")
    roi = read_mask_pgm(out / "img_001_roi.pgm")
    assert overlay.shape == (32, 32)
    assert roi.any()
    # striped boundary rows present: alternating 255/0 on some row
    marked = np.where((overlay == 255) | (overlay == 0))
    assert marked[0].size > 0


def test_layers_roi_matches_prepared_roi_channel(tmp_path):
    # a frame larger than the scan, shared by both
    text = TINY_CONFIG.replace("ref_rows = 32\nref_cols = 32", "ref_rows = 40\nref_cols = 44")
    cfg = _write_config(tmp_path, text)
    data = _make_phantoms(tmp_path, count=2)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"),
                "--config", cfg, "--out", str(prep)]) == 0
    for i in range(2):
        stem = f"img_{i:03d}"
        lay = tmp_path / f"lay{i}"
        assert run(["layers", "--in", str(data / f"{stem}.pgm"),
                    "--config", cfg, "--out", str(lay)]) == 0
        roi = read_mask_pgm(lay / f"{stem}_roi.pgm")
        # framed as train and predict frame it
        samples = {r.image_path.stem: s for r, s in _load_samples(prep, ReferenceDims(40, 44))}
        sample = samples[stem]
        assert sample.offset == (4, 6)
        prepared = crop_from_reference(sample.roi_channel, sample.offset, sample.orig_dims)
        assert roi.any()
        assert np.array_equal(prepared, roi.astype(np.float32))


# --- prepare / train / predict / evaluate ---------------------------------------


def test_full_pipeline(tmp_path):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=4)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"),
                "--config", cfg, "--out", str(prep)]) == 0
    assert (prep / "img_000.octf").is_file()
    assert (prep / "img_000_target.pgm").is_file()

    model = tmp_path / "model"
    assert run(["train", "--samples", str(prep), "--config", cfg,
                "--out", str(model)]) == 0
    assert (model / "checkpoint.bin").is_file()
    log = (model / "train_log.txt").read_text().splitlines()
    assert len(log) == 2
    assert log[0].startswith("epoch=0 loss=")

    pred = tmp_path / "pred"
    assert run(["predict", "--checkpoint", str(model / "checkpoint.bin"),
                "--samples", str(prep), "--config", cfg, "--out", str(pred)]) == 0
    assert (pred / "img_000_mask.pgm").is_file()
    assert (pred / "img_000_prob.octf").is_file()

    rep = tmp_path / "rep"
    assert run(["evaluate", "--manifest", str(data / "manifest.txt"),
                "--pred", str(pred), "--config", cfg, "--out", str(rep)]) == 0
    text = (rep / "report.txt").read_text()
    assert "mean dice=" in text
    assert (rep / "report.tsv").is_file()


def test_prepare_writes_one_target_per_record(tmp_path):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=2)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(_two_grader_manifest(data, 2)),
                "--config", cfg, "--out", str(prep)]) == 0
    expected = {
        f"img_{i:03d}{suffix}" for i in range(2) for suffix in (".octf", "_target.pgm")
    }
    assert {p.name for p in prep.iterdir()} == expected | {"samples.txt"}
    assert (prep / "samples.txt").read_text() == (
        "img_000.octf\timg_000_target.pgm\nimg_001.octf\timg_001_target.pgm\n"
    )


@pytest.mark.parametrize("command", ["prepare"])
@pytest.mark.parametrize("crop", [(32, 30), (20, 32)], ids=["narrower", "shorter"])
def test_mask_whose_dims_differ_from_its_scan_is_rejected(tmp_path, capsys, monkeypatch, command, crop):
    # padded on its own, such a mask would sit off its scan in the frame; it
    # is rejected before its scan's layer stage runs
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=3)
    mask = data / "mask_001.pgm"
    write_mask_pgm(read_mask_pgm(mask)[: crop[0], : crop[1]], mask)
    prepared = []

    def counting(image, ref):
        prepared.append(image.shape)
        return prepare_sample(image, ref)

    monkeypatch.setattr(octcyst.cli, "prepare_sample", counting)
    out = tmp_path / "o"
    assert run([command, "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(out)]) == 1
    assert f"{mask}: mask dims {crop} differ from its scan's (32, 32) (1 of 3 scans " \
           "prepared; the rest were not)" in capsys.readouterr().err
    assert len(prepared) == 1
    assert {p.name for p in out.iterdir()} == {"img_000.octf", "img_000_target.pgm"}


def test_prepare_names_the_scan_it_failed_on_and_what_became_of_the_rest(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=2)
    flat = data / "img_001.pgm"
    write_pgm(np.full((32, 32), 128, dtype=np.uint8), flat)
    out = tmp_path / "o"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{flat}: gradient field is identically zero (1 of 2 scans prepared; " \
           "the rest were not)" in err
    assert {p.name for p in out.iterdir()} == {"img_000.octf", "img_000_target.pgm"}


def test_prepare_names_a_scan_that_fails_to_read_and_what_became_of_the_rest(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["phantom", "--count", "3", "--rows", "64", "--cols", "96", "--seed", "5",
                "--out", str(data)]) == 0
    cut = data / "img_002.pgm"
    cut.write_bytes(cut.read_bytes()[:20])
    out = tmp_path / "o"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("img_002.pgm") == 1
    assert err.rstrip("\n").endswith(f"{cut}: expected 6144 pixels, got 7 (2 of 3 scans "
                                      "prepared; the rest were not)")
    assert not (out / "samples.txt").exists()


@pytest.mark.parametrize("error", ["cut", "os-error"])
def test_prepare_names_a_mask_that_fails_to_read_once(tmp_path, capsys, monkeypatch, error):
    data = _make_phantoms(tmp_path, count=3)
    mask = data / "mask_001.pgm"
    if error == "cut":
        mask.write_bytes(mask.read_bytes()[:20])
    else:
        def refusing(path):
            if path == mask:
                raise PermissionError(13, "Permission denied", str(path))
            return read_mask_pgm(path)

        monkeypatch.setattr(octcyst.cli, "read_mask_pgm", refusing)
    assert run(["prepare", "--manifest", str(data / "manifest.txt"),
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("mask_001.pgm") == 1 and str(mask) in err
    assert err.rstrip("\n").endswith("(1 of 3 scans prepared; the rest were not)")


def test_a_scan_named_like_another_scans_target_keeps_both_samples(tmp_path):
    # prepared targets are mask PGMs, so no scan stem can collide with them
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=2)
    (data / "img_001.pgm").rename(data / "img_000_target.pgm")
    (data / "manifest.txt").write_text(
        "img_000.pgm\tmask_000.pgm\nimg_000_target.pgm\tmask_001.pgm\n"
    )
    prep, model, pred = tmp_path / "prep", tmp_path / "model", tmp_path / "pred"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(prep)]) == 0
    for stem, mask in (("img_000", "mask_000"), ("img_000_target", "mask_001")):
        sample = load_sample(prep / f"{stem}.octf")
        target = read_mask_pgm(prep / f"{stem}_target.pgm")
        assert np.array_equal(crop_from_reference(target, sample.offset, sample.orig_dims),
                              read_mask_pgm(data / f"{mask}.pgm"))
    assert run(["train", "--samples", str(prep), "--config", cfg, "--out", str(model)]) == 0
    assert run(["predict", "--checkpoint", str(model / "checkpoint.bin"),
                "--samples", str(prep), "--config", cfg, "--out", str(pred)]) == 0
    assert sorted(p.name for p in pred.glob("*_mask.pgm")) == [
        "img_000_mask.pgm", "img_000_target_mask.pgm"
    ]


def test_train_names_a_prepared_target_of_the_wrong_dims(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=2)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(prep)]) == 0
    target = prep / "img_001_target.pgm"
    write_mask_pgm(np.zeros((16, 16), dtype=np.uint8), target)
    out = tmp_path / "model"
    assert run(["train", "--samples", str(prep), "--config", cfg, "--out", str(out)]) == 1
    assert f"{target}: target dims (16, 16) differ from its sample's (32, 32)" in (
        capsys.readouterr().err
    )
    assert not (out / "checkpoint.bin").exists()


def test_prepared_sample_has_its_scans_dims_and_no_sidecar(tmp_path):
    # the frame of the config is not stored: it is applied by train and predict
    text = TINY_CONFIG.replace("ref_rows = 32\nref_cols = 32", "ref_rows = 40\nref_cols = 44")
    data = _make_phantoms(tmp_path, count=2)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"),
                "--config", _write_config(tmp_path, text), "--out", str(prep)]) == 0
    assert sorted(p.name for p in prep.iterdir()) == [
        "img_000.octf", "img_000_target.pgm", "img_001.octf", "img_001_target.pgm",
        "samples.txt",
    ]
    for i in range(2):
        image = read_pgm(data / f"img_{i:03d}.pgm")
        sample = load_sample(prep / f"img_{i:03d}.octf")
        assert sample.values.shape == (2, 32, 32) and sample.offset == (0, 0)
        assert sample.values.tobytes() == prepare_sample(image, ReferenceDims(32, 32)).values.tobytes()
        assert np.array_equal(read_mask_pgm(prep / f"img_{i:03d}_target.pgm"),
                              read_mask_pgm(data / f"mask_{i:03d}.pgm"))


def test_prepare_reads_no_setting(tmp_path):
    # a prepared set is the same whatever config the run names
    data = _make_phantoms(tmp_path, count=2)
    sets = []
    for name, config in (("tiny", ["--config", _write_config(tmp_path)]), ("none", [])):
        prep = tmp_path / name
        assert run(["prepare", "--manifest", str(data / "manifest.txt"), *config,
                    "--out", str(prep)]) == 0
        sets.append({p.name: p.read_bytes() for p in prep.iterdir()})
    assert sorted(sets[0]) == [
        "img_000.octf", "img_000_target.pgm", "img_001.octf", "img_001_target.pgm",
        "samples.txt",
    ]
    assert sets[0] == sets[1]


def test_cli_pipeline_equals_training_on_samples_framed_in_memory(tmp_path):
    # scans 32x32 in a 40x44 frame: the CLI frames what prepare stored
    text = TINY_CONFIG.replace("ref_rows = 32\nref_cols = 32", "ref_rows = 40\nref_cols = 44")
    cfg_path = _write_config(tmp_path, text)
    data = _make_phantoms(tmp_path, count=3)
    prep, model, pred = tmp_path / "prep", tmp_path / "model", tmp_path / "pred"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg_path,
                "--out", str(prep)]) == 0
    assert run(["train", "--samples", str(prep), "--config", cfg_path, "--out", str(model)]) == 0
    assert run(["predict", "--checkpoint", str(model / "checkpoint.bin"), "--samples", str(prep),
                "--config", cfg_path, "--out", str(pred)]) == 0

    cfg, ref = parse_config(cfg_path), ReferenceDims(40, 44)
    pairs = []
    for i in range(3):
        sample = prepare_sample(read_pgm(data / f"img_{i:03d}.pgm"), ref)
        target, _ = pad_to_reference(read_mask_pgm(data / f"mask_{i:03d}.pgm"), ref)
        pairs.append((sample, target))
    checkpoint = train(pairs, _unet_config(cfg), _train_config(cfg))
    save_checkpoint(checkpoint, tmp_path / "memory.bin")
    assert (tmp_path / "memory.bin").read_bytes() == (model / "checkpoint.bin").read_bytes()
    for i, (sample, _) in enumerate(pairs):
        prob, mask = predict(checkpoint, sample)
        assert mask.shape == (32, 32)
        assert np.array_equal(read_mask_pgm(pred / f"img_{i:03d}_mask.pgm"), mask)
        assert read_float_raster(pred / f"img_{i:03d}_prob.octf")[0].tobytes() == prob.tobytes()


def _train_or_predict(tmp_path, cfg, command, prep, out):
    argv = [command, "--samples", str(prep), "--config", cfg, "--out", str(out)]
    if command == "predict":
        argv += ["--checkpoint", str(_checkpoint(tmp_path, cfg))]
    return run(argv)


@pytest.mark.parametrize("command", ["train", "predict"])
def test_a_sample_directory_from_an_older_version_is_named(tmp_path, capsys, command):
    # older versions wrote padded rasters with .meta sidecars and no listing
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=2)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(prep)]) == 0
    (prep / "samples.txt").unlink()
    (prep / "img_001.octf.meta").write_text("orig=32,32\n")
    out = tmp_path / "o"
    assert _train_or_predict(tmp_path, cfg, command, prep, out) == 1
    assert f"manifest not found: {prep / 'samples.txt'}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_a_failed_prepare_leaves_no_set_to_train_or_predict_on(tmp_path, capsys, command, rerun):
    # a rerun that fails also drops the listing of the run before it
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=3)
    prep, out = tmp_path / "prep", tmp_path / "o"
    prepare = ["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
               "--out", str(prep)]
    if rerun:
        assert run(prepare) == 0
    write_pgm(np.full((32, 32), 128, dtype=np.uint8), data / "img_002.pgm")
    assert run(prepare) == 1
    assert (prep / "img_001.octf").is_file()
    assert not (prep / "samples.txt").exists()
    capsys.readouterr()
    assert _train_or_predict(tmp_path, cfg, command, prep, out) == 1
    assert f"manifest not found: {prep / 'samples.txt'}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, name",
    [("train", "img_001.octf"), ("predict", "img_001.octf"), ("predict", "img_001_target.pgm")],
    ids=["train-sample", "predict-sample", "predict-target"],
)
def test_a_listed_file_that_is_gone_is_named(tmp_path, capsys, command, name):
    # the listed set is one unit: predict refuses it without its targets too
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=3)
    prep, out = tmp_path / "prep", tmp_path / "o"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(prep)]) == 0
    (prep / name).unlink()
    assert _train_or_predict(tmp_path, cfg, command, prep, out) == 1
    assert f"{prep / 'samples.txt'}:2: referenced file missing: {prep / name}" in (
        capsys.readouterr().err
    )
    assert list(out.iterdir()) == []


def test_an_unlisted_sample_in_the_directory_is_ignored(tmp_path):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=3)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(prep)]) == 0
    assert run(["train", "--samples", str(prep), "--config", cfg,
                "--out", str(tmp_path / "clean")]) == 0
    for suffix in (".octf", "_target.pgm"):
        (prep / f"stray{suffix}").write_bytes((prep / f"img_001{suffix}").read_bytes())
    model, pred = tmp_path / "model", tmp_path / "pred"
    assert run(["train", "--samples", str(prep), "--config", cfg, "--out", str(model)]) == 0
    assert (model / "checkpoint.bin").read_bytes() == (
        tmp_path / "clean" / "checkpoint.bin"
    ).read_bytes()
    assert run(["predict", "--checkpoint", str(model / "checkpoint.bin"), "--samples", str(prep),
                "--config", cfg, "--out", str(pred)]) == 0
    assert sorted(p.name for p in pred.glob("*_mask.pgm")) == [
        f"img_{i:03d}_mask.pgm" for i in range(3)
    ]


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("dims", [(36, 32), (32, 36)], ids=["taller", "wider"])
def test_a_sample_larger_than_the_frame_is_named(tmp_path, capsys, command, dims):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=2)
    prep = tmp_path / "prep"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(prep)]) == 0
    big = prep / "img_001.octf"
    write_float_raster(np.zeros((2, *dims), dtype=np.float32), big)
    write_mask_pgm(np.zeros(dims, dtype=np.uint8), prep / "img_001_target.pgm")
    out = tmp_path / "o"
    argv = [command, "--samples", str(prep), "--config", cfg, "--out", str(out)]
    if command == "predict":
        argv += ["--checkpoint", str(_checkpoint(tmp_path, cfg))]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"{big}: image {dims[0]}x{dims[1]} exceeds reference 32x32" in err
    assert list(out.iterdir()) == []


def _checkpoint(tmp_path, cfg):
    """A checkpoint trained by the CLI on phantoms of its own."""
    data = _make_phantoms(tmp_path / "ckpt", count=2, seed=9)
    prep, model = tmp_path / "ckpt" / "prep", tmp_path / "ckpt" / "model"
    assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(prep)]) == 0
    assert run(["train", "--samples", str(prep), "--config", cfg, "--out", str(model)]) == 0
    return model / "checkpoint.bin"


def test_evaluate_perfect_predictions_dice_one(tmp_path):
    data = _make_phantoms(tmp_path, count=3)
    pred = tmp_path / "pred"
    pred.mkdir()
    for i in range(3):
        mask = read_mask_pgm(data / f"mask_{i:03d}.pgm")
        write_mask_pgm(mask, pred / f"img_{i:03d}_mask.pgm")
    rep = tmp_path / "rep"
    assert run(["evaluate", "--manifest", str(data / "manifest.txt"),
                "--pred", str(pred), "--out", str(rep)]) == 0
    text = (rep / "report.txt").read_text()
    assert "mean dice=1.000000 std=0.000000" in text


@pytest.mark.parametrize("grader", [1, 2], ids=["report", "report_intersection"])
def test_evaluate_names_the_scan_whose_masks_differ_in_dims(tmp_path, capsys, grader):
    data = _make_phantoms(tmp_path, count=2)
    manifest = _two_grader_manifest(data, 2)
    pred = tmp_path / "pred"
    pred.mkdir()
    for i in range(2):
        write_mask_pgm(read_mask_pgm(data / f"mask_{i:03d}.pgm"), pred / f"img_{i:03d}_mask.pgm")
    # the second grader's mask feeds the intersection report
    truth = data / ("mask_000.pgm" if grader == 1 else "mask2_000.pgm")
    write_mask_pgm(np.zeros((10, 10), dtype=np.uint8), truth)
    rep = tmp_path / "rep"
    assert run(["evaluate", "--manifest", str(manifest),
                "--pred", str(pred), "--out", str(rep)]) == 1
    assert "img_000: mask dims differ" in capsys.readouterr().err


def test_pipeline_reproducible(tmp_path):
    cfg = _write_config(tmp_path)
    for sub in ("a", "b"):
        base = tmp_path / sub
        data = _make_phantoms(base, count=3, seed=17)
        assert run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                    "--out", str(base / "prep")]) == 0
        assert run(["train", "--samples", str(base / "prep"), "--config", cfg,
                    "--out", str(base / "model")]) == 0
    a = (tmp_path / "a/model/checkpoint.bin").read_bytes()
    b = (tmp_path / "b/model/checkpoint.bin").read_bytes()
    assert a == b


# --- iov -------------------------------------------------------------------------


def test_iov_command(tmp_path):
    data = _make_phantoms(tmp_path, count=2)
    # fabricate second-grader masks: grader 2 misses one cyst pixel row
    lines = []
    for i in range(2):
        mask = read_mask_pgm(data / f"mask_{i:03d}.pgm")
        second = mask.copy()
        ys, xs = np.where(second)
        second[ys[0], xs[0]] = 0
        write_mask_pgm(second, data / f"mask2_{i:03d}.pgm")
        lines.append(f"img_{i:03d}.pgm\tmask_{i:03d}.pgm\tmask2_{i:03d}.pgm")
    (data / "manifest2.txt").write_text("".join(l + "\n" for l in lines))
    out = tmp_path / "iov"
    assert run(["iov", "--manifest", str(data / "manifest2.txt"), "--out", str(out)]) == 0
    lines = (out / "iov_report.txt").read_text().splitlines()
    # grader 2 scored against grader 1: it marks nothing that grader 1 left out
    n = [int(read_mask_pgm(data / f"mask_{i:03d}.pgm").sum()) for i in range(2)]
    dices = [2 * (k - 1) / (2 * k - 1) for k in n]
    for i, (line, dice) in enumerate(zip(lines, dices)):
        assert line.startswith(f"image=img_{i:03d} ") and line.endswith(f" dice={dice:.6f}")
    assert lines[2:] == [
        "mean recall={:.6f} std={:.6f}".format(*aggregate_stats([(k - 1) / k for k in n])),
        "mean precision=1.000000 std=0.000000",
        "mean dice={:.6f} std={:.6f}".format(*aggregate_stats(dices)),
    ]


def test_iov_names_the_scan_whose_masks_differ_in_dims(tmp_path, capsys):
    data = _make_phantoms(tmp_path, count=2)
    manifest = _two_grader_manifest(data, 2)
    write_mask_pgm(np.zeros((10, 10), dtype=np.uint8), data / "mask2_001.pgm")
    out = tmp_path / "iov"
    assert run(["iov", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert "img_001: mask dims differ" in capsys.readouterr().err


def test_iov_requires_second_mask(tmp_path):
    data = _make_phantoms(tmp_path, count=2)
    out = tmp_path / "iov"
    code = run(["iov", "--manifest", str(data / "manifest.txt"), "--out", str(out)])
    assert code == 1


def test_evaluate_with_two_graders_writes_extra_reports(tmp_path):
    data = _make_phantoms(tmp_path, count=2)
    manifest = _two_grader_manifest(data, 2)
    pred = tmp_path / "pred"
    pred.mkdir()
    for i in range(2):
        write_mask_pgm(read_mask_pgm(data / f"mask_{i:03d}.pgm"), pred / f"img_{i:03d}_mask.pgm")
    rep = tmp_path / "rep"
    assert run(["evaluate", "--manifest", str(manifest),
                "--pred", str(pred), "--out", str(rep)]) == 0
    assert (rep / "report.txt").is_file()
    assert (rep / "report_gt2.txt").is_file()
    assert (rep / "report_intersection.txt").is_file()
