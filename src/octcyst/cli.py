"""Command-line surface for the whole pipeline.

One binary with subcommands: phantom, denoise, layers, prepare, train,
predict, evaluate, iov.  All tunables live in a key = value config file
whose defaults are the production settings; every subcommand writes only
inside its --out directory, and fixed seeds make full pipeline runs
bit-reproducible.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics
from .dataio import (
    PhantomSpec,
    gen_phantom,
    read_manifest,
    read_mask_pgm,
    read_pgm,
    write_manifest,
    write_mask_pgm,
    write_pgm,
)
from .dataio.formats import (
    atomic_write_bytes,
    parse_settings,
    read_float_raster,
    write_float_raster,
)
from .errors import BadRecord, EmptyDataset, InvalidConfig, MissingFile, OctCystError, ParseError
from .preprocess import BilateralParams, default_radius, denoise
from .rng import SplitMix64, derive_seed
from .samplekit import (
    ReferenceDims,
    Sample,
    extract_layers,
    load_sample,
    pad_to_reference,
    prepare_sample,
    save_sample,
)
from .tensornet import UNetConfig
from .trainer import TrainConfig, load_checkpoint, predict, save_checkpoint, train


@dataclass(frozen=True)
class Config:
    sigma_d: float = 2.0
    w_min: float = 1e-5
    ref_rows: int = 640
    ref_cols: int = 1024
    base_channels: int = 16
    depth: int = 3
    aspp_rates: tuple[int, ...] = (1, 2, 4, 8, 16)
    dropout: tuple[float, ...] = (0.1, 0.1, 0.2, 0.2)
    batch_size: int = 10
    epochs: int = 100
    learning_rate: float = 1e-3
    seed: int = 1
    roi_clamp: bool = True
    threshold: float = 0.5


def parse_config(path) -> Config:
    """Read a UTF-8 `key = value` config file in the parse_settings syntax;
    absent keys keep their defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: unreadable or not UTF-8 text: {e}") from e
    return replace(Config(), **parse_settings(text, Config(), path))


def _unet_config(cfg: Config, seed: int) -> UNetConfig:
    return UNetConfig(
        input_channels=2,
        base_channels=cfg.base_channels,
        depth=cfg.depth,
        bottleneck_channels=cfg.base_channels * 2**cfg.depth,
        aspp_rates=cfg.aspp_rates,
        dropout_per_level=cfg.dropout,
        seed=seed,
    )


def _train_config(cfg: Config, seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        seed=derive_seed(seed, 1),
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
    scans = [gen_phantom(spec)[:2] for spec in _phantom_specs(args, cfg)]
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
    write_pgm(denoise(image, cfg.sigma_d), out / f"{Path(args.input).stem}_denoised.pgm")
    return 0


def _cmd_layers(args, cfg: Config, out: Path) -> int:
    stem = Path(args.input).stem
    # the boundaries are drawn over the denoised scan, which nothing else reads
    overlay, ilm, ism, roi = extract_layers(read_pgm(args.input), cfg.sigma_d, cfg.w_min)
    cols = overlay.shape[1]
    stripes = np.where(np.arange(cols) % 2 == 0, 255, 0).astype(np.uint8)
    overlay[ilm, np.arange(cols)] = stripes
    overlay[ism, np.arange(cols)] = stripes
    write_pgm(overlay, out / f"{stem}_overlay.pgm")
    write_mask_pgm(roi, out / f"{stem}_roi.pgm")
    return 0


def _prepare_one(image_path: Path, cfg: Config) -> Sample:
    ref = ReferenceDims(cfg.ref_rows, cfg.ref_cols)
    return prepare_sample(read_pgm(image_path), ref, cfg.sigma_d, cfg.w_min)


def _padded_target(path: Path, cfg: Config) -> np.ndarray:
    """A target raster written by `prepare`, or a mask PGM padded into the
    reference frame."""
    if path.suffix == ".octf":
        return read_float_raster(path)[0]
    ref = ReferenceDims(cfg.ref_rows, cfg.ref_cols)
    padded, _ = pad_to_reference(read_mask_pgm(path).astype(np.float32), ref)
    return padded


def _cmd_prepare(args, cfg: Config, out: Path) -> int:
    for record in read_manifest(args.manifest):
        stem = record.image_path.stem
        sample = _prepare_one(record.image_path, cfg)
        save_sample(sample, out / f"{stem}.octf")
        write_float_raster(_padded_target(record.mask_path, cfg), out / f"{stem}_target.octf")
    return 0


def _inputs(args, cfg: Config) -> list[tuple[str, Sample, Path]]:
    """(stem, sample, target location) for each scan of --manifest, prepared
    in memory, or each sample `prepare` wrote to --samples."""
    if args.manifest:
        return [
            (r.image_path.stem, _prepare_one(r.image_path, cfg), r.mask_path)
            for r in read_manifest(args.manifest)
        ]
    paths = sorted(
        p for p in Path(args.samples).glob("*.octf")
        if not p.stem.endswith("_target")
    )
    if not paths:
        raise EmptyDataset(f"no prepared samples in {args.samples}")
    return [(p.stem, load_sample(p), p.with_name(p.stem + "_target.octf")) for p in paths]


def _cmd_train(args, cfg: Config, out: Path) -> int:
    seed = args.seed if args.seed is not None else cfg.seed
    data = [(sample, _padded_target(target, cfg)) for _, sample, target in _inputs(args, cfg)]
    log_lines = []
    checkpoint = train(
        data, _unet_config(cfg, seed), _train_config(cfg, seed),
        log_fn=lambda epoch, loss: log_lines.append(f"epoch={epoch} loss={loss:.6f}"),
    )
    save_checkpoint(checkpoint, out / "checkpoint.bin")
    _write_text(out / "train_log.txt", "\n".join(log_lines) + "\n")
    return 0


def _cmd_predict(args, cfg: Config, out: Path) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    for stem, sample, _ in _inputs(args, cfg):
        prob, mask = predict(checkpoint, sample, cfg.threshold, cfg.roi_clamp)
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
            raise MissingFile(f"no prediction for {stem}: {mask_path}")
        preds.append(read_mask_pgm(mask_path))
    truths = {"report": [read_mask_pgm(r.mask_path) for r in records]}
    if all(r.second_mask_path is not None for r in records):
        truths["report_gt2"] = [read_mask_pgm(r.second_mask_path) for r in records]
        truths["report_intersection"] = [
            metrics.intersect_masks(pair) for pair in zip(truths["report"], truths["report_gt2"])
        ]
    for name, masks in truths.items():
        report = metrics.evaluate_pairs(zip(stems, preds, masks))
        _write_text(out / f"{name}.txt", metrics.format_report(report))
        _write_text(out / f"{name}.tsv", metrics.format_report_tsv(report))
    return 0


def _cmd_iov(args, cfg: Config, out: Path) -> int:
    dices = []
    lines = []
    for record in read_manifest(args.manifest):
        if record.second_mask_path is None:
            raise BadRecord(f"{record.image_path.name}: no second grader mask")
        d = metrics.grader_iov(
            read_mask_pgm(record.mask_path), read_mask_pgm(record.second_mask_path)
        )
        dices.append(d)
        lines.append(f"image={record.image_path.stem} dice={d:.6f}")
    mean, std = metrics.aggregate_stats(dices)
    lines.append(f"mean dice={mean:.6f} std={std:.6f}")
    _write_text(out / "iov_report.txt", "\n".join(lines) + "\n")
    return 0


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octcyst",
        description="Intra-retinal cyst segmentation pipeline for SD-OCT B-scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, manifest=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        if manifest:
            p.add_argument("--manifest", required=True, help="dataset manifest file")
        p.set_defaults(func=func)
        return p

    def one_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--manifest", help="dataset manifest file; scans are prepared in memory")
        group.add_argument("--samples", help="directory of prepared samples")

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

    p = command("train", _cmd_train, "train the segmentation network")
    p.add_argument("--seed", type=int, help="override the config seed")
    one_input(p)

    p = command("predict", _cmd_predict, "run inference")
    p.add_argument("--checkpoint", required=True)
    one_input(p)

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
        _unet_config(cfg, 0).validate()  # cross-field checks (depth vs dropout)
        if cfg.ref_rows % 2**cfg.depth or cfg.ref_cols % 2**cfg.depth:
            raise InvalidConfig(f"reference frame is not divisible by 2**depth = {2**cfg.depth}")
        if not 0 < cfg.threshold < 1:
            raise InvalidConfig(f"threshold must be in (0, 1), got {cfg.threshold}")
        # layer paths are shortest paths only while every edge weight is >= 0
        if not 0 <= cfg.w_min < math.inf:
            raise InvalidConfig(f"w_min must be finite and >= 0, got {cfg.w_min}")
        # the other settings objects the subcommands build check their own values;
        # sigma_r is estimated per scan and never below 1
        _train_config(cfg, 0)
        ReferenceDims(cfg.ref_rows, cfg.ref_cols)
        BilateralParams(cfg.sigma_d, 1.0, default_radius(cfg.sigma_d))
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
