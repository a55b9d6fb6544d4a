import numpy as np
import pytest

from octcyst.cli import Config, parse_config, run
from octcyst.dataio import read_mask_pgm, read_pgm, write_mask_pgm
from octcyst.errors import ParseError, UnknownKey
from octcyst.samplekit import crop_from_reference, load_sample


TINY_CONFIG = """\
ref_rows = 32
ref_cols = 32
base_channels = 4
depth = 2
aspp_rates = 1,2
dropout = 0.1,0.1,0.2
batch_size = 4
epochs = 2
learning_rate = 0.001
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
    p.write_text("learning_rate = 0.01\n")
    cfg = parse_config(p)
    assert cfg.learning_rate == 0.01
    assert cfg.batch_size == Config().batch_size


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("foo = 1\n")
    with pytest.raises(UnknownKey):
        parse_config(p)


def test_parse_config_bad_value(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = ten\n")
    with pytest.raises(ParseError):
        parse_config(p)


def test_parse_config_lists_and_booleans(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("aspp_rates = 1,2,4\nroi_clamp = off\ndropout = 0.1,0.2,0.3\n")
    cfg = parse_config(p)
    assert cfg.aspp_rates == (1, 2, 4)
    assert cfg.roi_clamp is False
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
    with pytest.raises(ParseError, match="seed set twice"):
        parse_config(p)


def test_parse_config_not_utf8(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_bytes(b"seed = 3\n# caf\xe9\n")
    with pytest.raises(ParseError, match="UTF-8"):
        parse_config(p)


@pytest.mark.parametrize(
    "text",
    [
        b"batch_size = 0\n",
        b"learning_rate = 0\n",
        b"sigma_d = 0\n",
        b"sigma_d = nan\n",
        b"sigma_d = inf\n",
        b"ref_rows = 0\n",
        b"seed = 3\nseed = 4\n",
        b"seed = 3\n# \xff\n",
        b"threshold = nan\n",
        b"threshold = inf\n",
        b"threshold = 1.5\n",
        b"threshold = -1\n",
        b"w_min = nan\n",
        b"w_min = inf\n",
        b"w_min = -1e-5\n",
        b"learning_rate = nan\n",
        b"learning_rate = inf\n",
    ],
    ids=["batch_size", "learning_rate", "sigma_d-zero", "sigma_d-nan", "sigma_d-inf",
         "ref_rows", "repeated-key", "not-utf8", "threshold-nan", "threshold-inf",
         "threshold-above-1", "threshold-negative", "w_min-nan", "w_min-inf",
         "w_min-negative", "learning_rate-nan", "learning_rate-inf"],
)
def test_config_value_error_exits_2_before_out_exists(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_bytes(text)
    out = tmp_path / "o"
    # the default phantom geometry fits, so only the config can fail the run
    code = run(["phantom", "--config", str(p), "--count", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_train_config_value_error_exits_2(tmp_path):
    data = _make_phantoms(tmp_path, count=2)
    out = tmp_path / "model"
    cfg = _write_config(tmp_path, TINY_CONFIG.replace("batch_size = 4", "batch_size = 0"))
    assert run(["train", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(out)]) == 2
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
    out = tmp_path / "o"
    manifest, samples = ["--manifest", str(tmp_path / "m.txt")], ["--samples", str(tmp_path)]
    for inputs in ([], manifest + samples, samples + manifest):
        assert run(command + inputs + ["--out", str(out)]) == 2
    assert not out.exists()
    for inputs in (manifest, samples):
        assert run(command + inputs + ["--out", str(out)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["denoise", "--in", "x.pgm"],
        ["layers", "--in", "x.pgm"],
        ["prepare", "--manifest", "m.txt"],
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
    # a frame larger than the scan and a non-default sigma_d, shared by both
    text = TINY_CONFIG.replace("ref_rows = 32\nref_cols = 32", "ref_rows = 40\nref_cols = 44")
    cfg = _write_config(tmp_path, text + "sigma_d = 1.5\n")
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
        sample = load_sample(prep / f"{stem}.octf")
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
    assert (prep / "img_000.octf.meta").is_file()
    assert (prep / "img_000_target.octf").is_file()

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
        f"img_{i:03d}{suffix}" for i in range(2) for suffix in (".octf", ".octf.meta", "_target.octf")
    }
    assert {p.name for p in prep.iterdir()} == expected


def test_predict_from_manifest(tmp_path):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=2)
    model = tmp_path / "model"
    assert run(["train", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(model)]) == 0
    pred = tmp_path / "pred"
    assert run(["predict", "--checkpoint", str(model / "checkpoint.bin"),
                "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(pred)]) == 0
    assert (pred / "img_000_mask.pgm").is_file()
    assert (pred / "img_001_prob.octf").is_file()


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


def test_train_from_manifest_matches_samples_dir(tmp_path):
    cfg = _write_config(tmp_path)
    data = _make_phantoms(tmp_path, count=3)
    prep = tmp_path / "prep"
    run(["prepare", "--manifest", str(data / "manifest.txt"), "--config", cfg,
         "--out", str(prep)])
    m1 = tmp_path / "m1"
    m2 = tmp_path / "m2"
    assert run(["train", "--manifest", str(data / "manifest.txt"), "--config", cfg,
                "--out", str(m1)]) == 0
    assert run(["train", "--samples", str(prep), "--config", cfg,
                "--out", str(m2)]) == 0
    assert (m1 / "checkpoint.bin").read_bytes() == (m2 / "checkpoint.bin").read_bytes()


def test_pipeline_reproducible(tmp_path):
    cfg = _write_config(tmp_path)
    for sub in ("a", "b"):
        base = tmp_path / sub
        data = _make_phantoms(base, count=3, seed=17)
        run(["train", "--manifest", str(data / "manifest.txt"), "--config", cfg,
             "--out", str(base / "model")])
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
    text = (out / "iov_report.txt").read_text()
    assert text.count("image=") == 2
    assert "mean dice=" in text


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
