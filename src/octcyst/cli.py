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
    PhantomSpec,
    gen_phantom,
    read_manifest,
    read_mask_pgm,
    read_pgm,
    write_manifest,
    write_mask_pgm,
    write_pgm,
)
from .dataio.formats import atomic_write_bytes, read_float_raster, write_float_raster
from .errors import (
    BadRecord,
    EmptyDataset,
    InvalidConfig,
    MissingFile,
    OctCystError,
    ParseError,
    UnknownKey,
)
from .preprocess import denoise
from .retinagraph import roi_mask, segment_layers
from .rng import SplitMix64, derive_seed
from .samplekit import (
    ReferenceDims,
    Sample,
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


def _parse_bool(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise ValueError(f"expected on/off, got {value!r}")


_CONFIG_PARSERS = {
    "sigma_d": float,
    "w_min": float,
    "ref_rows": int,
    "ref_cols": int,
    "base_channels": int,
    "depth": int,
    "aspp_rates": lambda v: tuple(int(x) for x in v.split(",")),
    "dropout": lambda v: tuple(float(x) for x in v.split(",")),
    "batch_size": int,
    "epochs": int,
    "learning_rate": float,
    "seed": int,
    "roi_clamp": _parse_bool,
    "threshold": float,
}


def parse_config(path) -> Config:
    """Read a key = value config file; absent keys keep their defaults."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"config not found: {path}")
    overrides = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise UnknownKey(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = _CONFIG_PARSERS[key](value)
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: bad value for {key}: {e}") from e
    return replace(Config(), **overrides)


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


def _write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# --- subcommands -----------------------------------------------------------


def _cmd_phantom(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.seed
    manifest_lines = []
    for i in range(args.count):
        layout = SplitMix64(derive_seed(seed, i))
        ilm = args.rows // 8 + layout.below(max(1, args.rows // 8))
        ism = (5 * args.rows) // 8 + layout.below(max(1, args.rows // 8))
        spec = PhantomSpec(
            rows=args.rows,
            cols=args.cols,
            ilm_row=ilm,
            ism_row=ism,
            n_cysts=args.n_cysts,
            cyst_axis_range=(args.axis_min, args.axis_max),
            speckle_sigma=args.speckle,
            seed=layout.state,
        )
        image, mask, _, _ = gen_phantom(spec)
        img_name = f"img_{i:03d}.pgm"
        mask_name = f"mask_{i:03d}.pgm"
        write_pgm(image, out / img_name)
        write_mask_pgm(mask, out / mask_name)
        manifest_lines.append((img_name, mask_name))
    write_manifest(manifest_lines, out / "manifest.txt")
    return 0


def _cmd_denoise(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    image = read_pgm(args.input)
    write_pgm(denoise(image, cfg.sigma_d), out / f"{Path(args.input).stem}_denoised.pgm")
    return 0


def _cmd_layers(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    image = read_pgm(args.input)
    denoised = denoise(image, cfg.sigma_d)
    ilm, ism = segment_layers(denoised, cfg.w_min)
    roi = roi_mask(ilm, ism, *denoised.shape)

    overlay = denoised.copy()
    cols = overlay.shape[1]
    stripes = np.where(np.arange(cols) % 2 == 0, 255, 0).astype(np.uint8)
    overlay[ilm, np.arange(cols)] = stripes
    overlay[ism, np.arange(cols)] = stripes
    write_pgm(overlay, out / f"{stem}_overlay.pgm")
    write_mask_pgm(roi.mask, out / f"{stem}_roi.pgm")
    return 0


def _prepare_one(image_path: Path, cfg: Config) -> Sample:
    ref = ReferenceDims(cfg.ref_rows, cfg.ref_cols)
    return prepare_sample(read_pgm(image_path), ref, cfg.sigma_d, cfg.w_min)


def _padded_target(mask_path: Path, cfg: Config) -> np.ndarray:
    ref = ReferenceDims(cfg.ref_rows, cfg.ref_cols)
    mask = read_mask_pgm(mask_path)
    padded, _ = pad_to_reference(mask.astype(np.float32), ref)
    return padded


def _cmd_prepare(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = read_manifest(args.manifest)
    for record in manifest.records:
        stem = record.image_path.stem
        sample = _prepare_one(record.image_path, cfg)
        save_sample(sample, out / f"{stem}.octf")
        write_float_raster(_padded_target(record.mask_path, cfg), out / f"{stem}_target.octf")
        if record.second_mask_path is not None:
            write_float_raster(
                _padded_target(record.second_mask_path, cfg),
                out / f"{stem}_target2.octf",
            )
    return 0


def _sample_paths(sample_dir) -> list[Path]:
    """Prepared samples written by `prepare`, sorted; target rasters excluded."""
    return sorted(
        p for p in Path(sample_dir).glob("*.octf") if not p.stem.endswith(("_target", "_target2"))
    )


def _load_training_data(args, cfg: Config) -> list[tuple[Sample, np.ndarray]]:
    data = []
    if args.manifest:
        manifest = read_manifest(args.manifest)
        for record in manifest.records:
            sample = _prepare_one(record.image_path, cfg)
            target = _padded_target(record.mask_path, cfg)
            data.append((sample, target))
    elif args.samples:
        for p in _sample_paths(args.samples):
            target_path = p.with_name(p.stem + "_target.octf")
            if not target_path.is_file():
                raise MissingFile(f"no target raster for {p}")
            data.append((load_sample(p), read_float_raster(target_path)[0]))
    if not data:
        raise EmptyDataset("no training samples found")
    return data


def _cmd_train(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.seed
    data = _load_training_data(args, cfg)
    unet_cfg = _unet_config(cfg, seed)
    train_cfg = TrainConfig(
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        seed=derive_seed(seed, 1),
    )
    log_lines = []
    checkpoint = train(
        data, unet_cfg, train_cfg,
        log_fn=lambda epoch, loss: log_lines.append(f"epoch={epoch} loss={loss:.6f}"),
    )
    save_checkpoint(checkpoint, out / "checkpoint.bin")
    _write_text(out / "train_log.txt", "\n".join(log_lines) + "\n")
    return 0


def _cmd_predict(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = load_checkpoint(args.checkpoint)
    items: list[tuple[str, Sample]] = []
    if args.manifest:
        manifest = read_manifest(args.manifest)
        for record in manifest.records:
            items.append((record.image_path.stem, _prepare_one(record.image_path, cfg)))
    elif args.samples:
        for p in _sample_paths(args.samples):
            items.append((p.stem, load_sample(p)))
    if not items:
        raise EmptyDataset("nothing to predict")
    for stem, sample in items:
        prob, mask = predict(checkpoint, sample, cfg.threshold, cfg.roi_clamp)
        write_float_raster(prob, out / f"{stem}_prob.octf")
        write_mask_pgm(mask, out / f"{stem}_mask.pgm")
    return 0


def _cmd_evaluate(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = read_manifest(args.manifest)
    pred_dir = Path(args.pred)
    preds = {}
    for record in manifest.records:
        stem = record.image_path.stem
        mask_path = pred_dir / f"{stem}_mask.pgm"
        if not mask_path.is_file():
            raise MissingFile(f"no prediction for {stem}: {mask_path}")
        preds[stem] = read_mask_pgm(mask_path)

    def write_report(name: str, pairs) -> None:
        report = metrics.evaluate_pairs(pairs)
        _write_text(out / f"{name}.txt", metrics.format_report(report))
        _write_text(out / f"{name}.tsv", metrics.format_report_tsv(report))

    write_report(
        "report",
        [
            (r.image_path.stem, preds[r.image_path.stem], read_mask_pgm(r.mask_path))
            for r in manifest.records
        ],
    )
    if all(r.second_mask_path is not None for r in manifest.records):
        write_report(
            "report_gt2",
            [
                (r.image_path.stem, preds[r.image_path.stem], read_mask_pgm(r.second_mask_path))
                for r in manifest.records
            ],
        )
        write_report(
            "report_intersection",
            [
                (
                    r.image_path.stem,
                    preds[r.image_path.stem],
                    metrics.intersect_masks(
                        [read_mask_pgm(r.mask_path), read_mask_pgm(r.second_mask_path)]
                    ),
                )
                for r in manifest.records
            ],
        )
    return 0


def _cmd_iov(args, cfg: Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = read_manifest(args.manifest)
    dices = []
    lines = []
    for record in manifest.records:
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

    def common(p, manifest=False, out=True):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if manifest:
            p.add_argument("--manifest", help="dataset manifest file")

    p = sub.add_parser("phantom", help="generate synthetic scans with ground truth")
    common(p)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=96)
    p.add_argument("--n-cysts", type=int, default=3)
    p.add_argument("--axis-min", type=int, default=2)
    p.add_argument("--axis-max", type=int, default=6)
    p.add_argument("--speckle", type=float, default=0.06)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("denoise", help="bilateral-filter one scan")
    common(p)
    p.add_argument("--in", dest="input", required=True, help="input PGM")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("layers", help="extract ILM/ISM boundaries and the ROI")
    common(p)
    p.add_argument("--in", dest="input", required=True, help="input PGM")
    p.set_defaults(func=_cmd_layers)

    p = sub.add_parser("prepare", help="build two-channel samples from a manifest")
    common(p, manifest=True)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train the segmentation network")
    common(p, manifest=True)
    p.add_argument("--samples", help="directory of prepared samples")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run inference")
    common(p, manifest=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", help="directory of prepared samples")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    common(p, manifest=True)
    p.add_argument("--pred", required=True, help="directory of prediction masks")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("iov", help="inter-observer variability between graders")
    common(p, manifest=True)
    p.set_defaults(func=_cmd_iov)

    return parser


def run(argv) -> int:
    """Entry point returning the process exit code: 0 success, 1 data or
    runtime error, 2 usage or config error."""
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
    except (UnknownKey, ParseError, MissingFile, InvalidConfig) as e:
        print(f"octcyst: config error: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except OctCystError as e:
        print(f"octcyst: error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"octcyst: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
