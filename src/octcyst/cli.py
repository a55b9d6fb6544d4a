"""Command-line surface for the whole pipeline.

One binary with subcommands: phantom, denoise, layers, prepare, train,
predict, evaluate, iov.  All tunables live in a key = value config file
whose defaults are the production settings; every subcommand writes only
inside its --out directory, and fixed seeds make full pipeline runs
bit-reproducible.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics
from .dataio import (
    ManifestRecord,
    PhantomSpec,
    gen_phantom,
    read_manifest,
    read_mask_pgm,
    read_pgm,
    write_manifest,
    write_mask_pgm,
    write_pgm,
)
from .dataio.formats import atomic_write_bytes, parse_settings, write_float_raster
from .errors import InvalidConfig, OctCystError
from .preprocess import denoise
from .rng import SplitMix64, derive_seed
from .samplekit import (
    ReferenceDims,
    Sample,
    extract_layers,
    load_sample,
    pad_to_reference,
    prepare_sample,
)
from .tensornet import UNetConfig
from .trainer import TrainConfig, load_checkpoint, predict, save_checkpoint, train


@dataclass(frozen=True)
class Config:
    # each default is the production value declared by the object the key feeds
    ref_rows: int = ReferenceDims.rows
    ref_cols: int = ReferenceDims.cols
    base_channels: int = UNetConfig.base_channels
    depth: int = UNetConfig.depth
    aspp_rates: tuple[int, ...] = UNetConfig.aspp_rates
    dropout: tuple[float, ...] = UNetConfig.dropout_per_level
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    seed: int = 1


def parse_config(path) -> Config:
    """Read a UTF-8 `key = value` config file in the parse_settings syntax;
    absent keys keep their defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidConfig(f"{path}: unreadable or not UTF-8 text: {e}") from e
    return replace(Config(), **parse_settings(text, Config(), path))


def _unet_config(cfg: Config) -> UNetConfig:
    return UNetConfig(
        base_channels=cfg.base_channels,
        depth=cfg.depth,
        bottleneck_channels=cfg.base_channels * 2**cfg.depth,
        aspp_rates=cfg.aspp_rates,
        dropout_per_level=cfg.dropout,
        seed=cfg.seed,
    )


def _train_config(cfg: Config) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        seed=derive_seed(cfg.seed, 1),
    )


def _write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# --- subcommands -----------------------------------------------------------


def _phantom_specs(args, cfg: Config) -> list[PhantomSpec]:
    """One spec per scan; InvalidConfig if the count or a scan's geometry
    cannot work."""
    if args.count < 1:
        raise InvalidConfig(f"--count must be >= 1, got {args.count}")
    seed = args.seed if args.seed is not None else cfg.seed
    specs = []
    for i in range(args.count):
        layout = SplitMix64(derive_seed(seed, i))
        ilm = args.rows // 8 + layout.below(max(1, args.rows // 8))
        ism = (5 * args.rows) // 8 + layout.below(max(1, args.rows // 8))
        specs.append(PhantomSpec(
            rows=args.rows,
            cols=args.cols,
            ilm_row=ilm,
            ism_row=ism,
            n_cysts=args.n_cysts,
            cyst_axis_range=(args.axis_min, args.axis_max),
            speckle_sigma=args.speckle,
            seed=layout.state,
        ))
    return specs


def _cmd_phantom(args, cfg: Config, out: Path) -> int:
    # every scan is generated before any is written, so a scan whose cysts
    # cannot be placed leaves no partial set behind
    scans = []
    for i, spec in enumerate(_phantom_specs(args, cfg)):
        try:
            scans.append(gen_phantom(spec)[:2])
        except OctCystError as e:
            raise OctCystError(f"scan {i} (img_{i:03d}.pgm): {e}") from e
    manifest_lines = []
    for i, (image, mask) in enumerate(scans):
        img_name = f"img_{i:03d}.pgm"
        mask_name = f"mask_{i:03d}.pgm"
        write_pgm(image, out / img_name)
        write_mask_pgm(mask, out / mask_name)
        manifest_lines.append((img_name, mask_name))
    write_manifest(manifest_lines, out / "manifest.txt")
    return 0


def _cmd_denoise(args, cfg: Config, out: Path) -> int:
    image = read_pgm(args.input)
    write_pgm(denoise(image), out / f"{Path(args.input).stem}_denoised.pgm")
    return 0


def _cmd_layers(args, cfg: Config, out: Path) -> int:
    stem = Path(args.input).stem
    # the boundaries are drawn over the denoised scan, which nothing else reads
    overlay, ilm, ism, roi = extract_layers(read_pgm(args.input))
    cols = overlay.shape[1]
    stripes = np.where(np.arange(cols) % 2 == 0, 255, 0).astype(np.uint8)
    overlay[ilm, np.arange(cols)] = stripes
    overlay[ism, np.arange(cols)] = stripes
    write_pgm(overlay, out / f"{stem}_overlay.pgm")
    write_mask_pgm(roi, out / f"{stem}_roi.pgm")
    return 0


def _cmd_prepare(args, cfg: Config, out: Path) -> int:
    records = read_manifest(args.manifest)
    # the listing is written last, so a failed run leaves none for train and predict
    listing = out / "samples.txt"
    listing.unlink(missing_ok=True)
    listed = []
    for i, record in enumerate(records):
        stem = record.image_path.stem
        image = read_pgm(record.image_path)
        rest = f"({i} of {len(records)} scans prepared; the rest were not)"
        # padded on its own, a mask of other dims would sit off its scan in the frame
        mask = read_mask_pgm(record.mask_path)
        if mask.shape != image.shape:
            raise OctCystError(
                f"{record.mask_path}: mask dims {mask.shape} differ from its scan's "
                f"{image.shape} {rest}"
            )
        # stored in a frame of the scan's own dims; train and predict pad it
        try:
            sample = prepare_sample(image, ReferenceDims(*image.shape))
        except OctCystError as e:
            raise OctCystError(f"{record.image_path}: {e} {rest}") from e
        sample_name, target_name = f"{stem}.octf", f"{stem}_target.pgm"
        write_float_raster(sample.values, out / sample_name)
        write_mask_pgm(mask, out / target_name)
        listed.append((sample_name, target_name))
    write_manifest(listed, listing)
    return 0


def _load_samples(samples_dir, ref: ReferenceDims) -> list[tuple[ManifestRecord, Sample]]:
    """(record, sample padded into `ref`) for each sample and target that
    `prepare` listed in samples_dir/samples.txt, in listing order."""
    samples = []
    for record in read_manifest(Path(samples_dir) / "samples.txt"):
        sample = load_sample(record.image_path)
        try:
            values, _ = pad_to_reference(sample.values, ref)
        except OctCystError as e:
            raise OctCystError(f"{record.image_path}: {e}") from e
        samples.append((record, Sample(values, sample.orig_dims)))
    return samples


def _cmd_train(args, cfg: Config, out: Path) -> int:
    ref = ReferenceDims(cfg.ref_rows, cfg.ref_cols)
    data = []
    for record, sample in _load_samples(args.samples, ref):
        target = read_mask_pgm(record.mask_path)
        if target.shape != sample.orig_dims:
            raise OctCystError(
                f"{record.mask_path}: target dims {target.shape} differ from its sample's "
                f"{sample.orig_dims}"
            )
        data.append((sample, pad_to_reference(target, ref)[0]))
    log_lines = []
    checkpoint = train(
        data, _unet_config(cfg), _train_config(cfg),
        log_fn=lambda epoch, loss: log_lines.append(f"epoch={epoch} loss={loss:.6f}"),
    )
    save_checkpoint(checkpoint, out / "checkpoint.bin")
    _write_text(out / "train_log.txt", "\n".join(log_lines) + "\n")
    return 0


def _cmd_predict(args, cfg: Config, out: Path) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    for record, sample in _load_samples(args.samples, ReferenceDims(cfg.ref_rows, cfg.ref_cols)):
        prob, mask = predict(checkpoint, sample)
        stem = record.image_path.stem
        write_float_raster(prob, out / f"{stem}_prob.octf")
        write_mask_pgm(mask, out / f"{stem}_mask.pgm")
    return 0


def _cmd_evaluate(args, cfg: Config, out: Path) -> int:
    records = read_manifest(args.manifest)
    stems = [r.image_path.stem for r in records]
    preds = []
    for stem in stems:
        mask_path = Path(args.pred) / f"{stem}_mask.pgm"
        if not mask_path.is_file():
            raise OctCystError(f"no prediction for {stem}: {mask_path}")
        preds.append(read_mask_pgm(mask_path))
    truth = [read_mask_pgm(r.mask_path) for r in records]
    reports = {"report": metrics.evaluate_pairs(zip(stems, preds, truth))}
    if all(r.second_mask_path is not None for r in records):
        truth2 = [read_mask_pgm(r.second_mask_path) for r in records]
        reports["report_gt2"] = metrics.evaluate_pairs(zip(stems, preds, truth2))
        # both graders' masks now match the prediction's dims, so they intersect
        both = map(metrics.intersect_masks, truth, truth2)
        reports["report_intersection"] = metrics.evaluate_pairs(zip(stems, preds, both))
    for name, report in reports.items():
        _write_text(out / f"{name}.txt", metrics.format_report(report))
        _write_text(out / f"{name}.tsv", metrics.format_report_tsv(report))
    return 0


def _cmd_iov(args, cfg: Config, out: Path) -> int:
    def graders(record):
        if record.second_mask_path is None:
            raise OctCystError(f"{record.image_path.name}: no second grader mask")
        masks = read_mask_pgm(record.second_mask_path), read_mask_pgm(record.mask_path)
        return (record.image_path.stem, *masks)

    # inter-observer variability: grader 2's mask scored against grader 1's
    scores = metrics.evaluate_pairs(map(graders, read_manifest(args.manifest)))
    _write_text(out / "iov_report.txt", metrics.format_report(scores))
    return 0


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octcyst",
        description="Intra-retinal cyst segmentation pipeline for SD-OCT B-scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, manifest=False, samples=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        if manifest:
            p.add_argument("--manifest", required=True, help="dataset manifest file")
        if samples:
            p.add_argument("--samples", required=True, help="directory that prepare wrote")
        p.set_defaults(func=func)
        return p

    p = command("phantom", _cmd_phantom, "generate synthetic scans with ground truth")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=96)
    p.add_argument("--n-cysts", type=int, default=3)
    p.add_argument("--axis-min", type=int, default=2)
    p.add_argument("--axis-max", type=int, default=6)
    p.add_argument("--speckle", type=float, default=0.06)

    p = command("denoise", _cmd_denoise, "bilateral-filter one scan")
    p.add_argument("--in", dest="input", required=True, help="input PGM")

    p = command("layers", _cmd_layers, "extract ILM/ISM boundaries and the ROI")
    p.add_argument("--in", dest="input", required=True, help="input PGM")

    command("prepare", _cmd_prepare, "build two-channel samples from a manifest", manifest=True)

    command("train", _cmd_train, "train the segmentation network", samples=True)

    p = command("predict", _cmd_predict, "run inference", samples=True)
    p.add_argument("--checkpoint", required=True)

    p = command("evaluate", _cmd_evaluate, "score predictions against ground truth", manifest=True)
    p.add_argument("--pred", required=True, help="directory of prediction masks")

    command("iov", _cmd_iov, "inter-observer variability between graders", manifest=True)

    return parser


def run(argv) -> int:
    """Entry point returning the process exit code: 0 success, 2 usage or
    setting error (argparse, InvalidConfig), 1 any other OctCystError or
    OSError."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        cfg = parse_config(args.config) if args.config else Config()
        _unet_config(cfg)  # cross-field checks (depth vs dropout)
        if cfg.ref_rows % 2**cfg.depth or cfg.ref_cols % 2**cfg.depth:
            raise InvalidConfig(f"reference frame is not divisible by 2**depth = {2**cfg.depth}")
        # the other settings objects the subcommands build check their own values
        _train_config(cfg)
        ReferenceDims(cfg.ref_rows, cfg.ref_cols)
        if args.command == "phantom":
            _phantom_specs(args, cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
    except InvalidConfig as e:
        print(f"octcyst: setting error: {e}", file=sys.stderr)
        return 2
    except (OctCystError, OSError) as e:
        print(f"octcyst: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
