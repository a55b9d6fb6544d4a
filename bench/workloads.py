"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed in `setup`, which
the runner repeats to time it, and then runs whole units of work through
octcyst's public API or CLI.  A unit returns its wall time and how many
operations it attempted and how many failed; `check` verifies the outputs
of all units after the timed region.

- desk_e2e: one unit is the README desk pipeline (prepare -> train ->
  predict -> evaluate through `octcyst.cli.run`) on 40 training and 10
  held-out 64x96 phantoms.  Tiny ops: per-op Python overhead in tensornet
  and the per-sample loop in trainer dominate.  The only workload that
  measures segmentation quality.
- frame_train: one unit is one training step (`trainer.train` on one
  sample) at the 640x1024 production frame.  Large BLAS-bound
  convolutions dominate; retinagraph does no work.
- clinic_predict: one unit is a pair of clinical-size scans (496x512 and
  496x1024) read from disk, prepared and predicted with the production
  network.  Forward only: layer extraction grows with scan width, the
  eval forward is fixed by the frame.
"""

from __future__ import annotations

import gc
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through module attributes (trainer.train, not train) so that
# the tracer's wrappers, installed on octcyst's modules, see them.
from octcyst import cli, dataio, samplekit, tensornet, trainer
from octcyst.errors import OctCystError
from octcyst.rng import SplitMix64, derive_seed

DICE_FLOOR = 0.60  # acceptance criterion 9
LAYER_FLOOR = 0.95  # acceptance criterion 10
PRODUCTION_FRAME = samplekit.ReferenceDims(640, 1024)
PRODUCTION_SEED = 1  # the default config seed of `octcyst train`

# The README desk configuration.  It is the program's configuration, so it
# stays fixed; the benchmark seed only draws the phantoms.
DESK_CFG = """\
ref_rows = 64
ref_cols = 96
base_channels = 4
depth = 3
aspp_rates = 1,2,4
dropout = 0.1,0.1,0.2,0.2
batch_size = 5
epochs = {epochs}
seed = 7
"""
DESK_TRAIN, DESK_HELDOUT, DESK_EPOCHS = 40, 10, 60


@dataclass
class Unit:
    seconds: float
    samples: int  # network samples processed (training samples or scans)
    sample_seconds: float  # the part of `seconds` spent processing them
    attempted: int
    failed: int
    stage_s: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


@dataclass
class Check:
    correct: bool
    quality: dict  # "quality" is the workload's end-to-end quality metric
    notes: list


def phantom(seed: int, index: int, rows: int, cols: int):
    """One phantom scan with its truth, laid out like `octcyst phantom`:
    ILM in the first eighth band, ISM near five eighths, three cysts whose
    axes scale with the scan height."""
    layout = SplitMix64(derive_seed(seed, index))
    eighth = max(1, rows // 8)
    scale = max(1, rows // 64)
    spec = dataio.PhantomSpec(
        rows=rows,
        cols=cols,
        ilm_row=rows // 8 + layout.below(eighth),
        ism_row=(5 * rows) // 8 + layout.below(eighth),
        n_cysts=3,
        cyst_axis_range=(2 * scale, 6 * scale),
        speckle_sigma=0.06,
        seed=layout.state,
    )
    image, mask, ilm, ism = dataio.gen_phantom(spec)
    return image, mask, ilm, ism


def layer_hits(roi_channel: np.ndarray, offset, orig_dims, ilm, ism) -> tuple[int, int]:
    """Columns whose ILM and ISM, read back from the ROI channel as the
    rows just outside the ROI band, both lie within +-1 row of truth."""
    roi = samplekit.crop_from_reference(roi_channel, offset, orig_dims) != 0
    rows = np.arange(roi.shape[0])[:, None]
    present = roi.any(axis=0)
    top = np.where(roi, rows, roi.shape[0]).min(axis=0) - 1
    bottom = np.where(roi, rows, -1).max(axis=0) + 1
    ok = present & (np.abs(top - ilm) <= 1) & (np.abs(bottom - ism) <= 1)
    return int(ok.sum()), roi.shape[1]


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self, index: int) -> str:
        """Make the inputs; returns a digest of them.  Runs several times
        with the same seed, and every run must give the same digest."""
        raise NotImplementedError

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def check(self, units: list) -> Check:
        raise NotImplementedError


class DeskE2E(Workload):
    name = "desk_e2e"

    def setup(self, index: int) -> str:
        inputs = self.work / f"inputs{index}"
        if inputs.exists():
            shutil.rmtree(inputs)
        self.truth = {}
        files = []
        for part, count, salt in (("train", DESK_TRAIN, 1), ("heldout", DESK_HELDOUT, 2)):
            out = inputs / part
            out.mkdir(parents=True)
            lines = []
            for i in range(count):
                image, mask, ilm, ism = phantom(derive_seed(self.seed, salt), i, 64, 96)
                img_name, mask_name = f"img_{i:03d}.pgm", f"mask_{i:03d}.pgm"
                dataio.write_pgm(image, out / img_name)
                dataio.write_mask_pgm(mask, out / mask_name)
                lines.append((img_name, mask_name))
                self.truth[(part, f"img_{i:03d}")] = (ilm, ism)
            dataio.write_manifest(lines, out / "manifest.txt")
            files += list(out.iterdir())
        (inputs / "desk.cfg").write_text(DESK_CFG.format(epochs=DESK_EPOCHS), encoding="utf-8")
        self.inputs = inputs
        return digest(files + [inputs / "desk.cfg"])

    def unit(self, index: int) -> Unit:
        run = self.work / f"run{index}"
        if run.exists():
            shutil.rmtree(run)
        cfg = str(self.inputs / "desk.cfg")
        train_m = str(self.inputs / "train" / "manifest.txt")
        held_m = str(self.inputs / "heldout" / "manifest.txt")
        stages = [
            ("prepare_train", ["prepare", "--manifest", train_m], "prep_train"),
            ("prepare_heldout", ["prepare", "--manifest", held_m], "prep_heldout"),
            ("train", ["train", "--samples", str(run / "prep_train")], "model"),
            ("predict", ["predict", "--checkpoint", str(run / "model" / "checkpoint.bin"),
                         "--samples", str(run / "prep_heldout")], "pred"),
            ("evaluate", ["evaluate", "--manifest", held_m, "--pred", str(run / "pred")], "report"),
        ]
        stage_s = {}
        attempted = failed = 0
        t0 = time.perf_counter()
        for stage, argv, out in stages:
            attempted += 1
            s0 = time.perf_counter()
            code = cli.run(argv + ["--config", cfg, "--out", str(run / out)])
            stage_s[stage] = time.perf_counter() - s0
            if code != 0:
                failed += 1
                break
        seconds = time.perf_counter() - t0
        samples = DESK_TRAIN * DESK_EPOCHS if failed == 0 else 0
        train_s = stage_s.get("train", seconds)
        return Unit(seconds, samples, train_s, attempted, failed, stage_s, {"dir": run})

    def check(self, units: list) -> Check:
        notes, errors = [], []
        dices, shas, hits, cols = [], set(), 0, 0
        for u in units:
            if u.failed:
                errors.append(f"a pipeline stage failed: {u.stage_s}")
                continue
            run = u.outputs["dir"]
            shas.add(hashlib.sha256((run / "model" / "checkpoint.bin").read_bytes()).hexdigest())
            dices.append(_mean_dice(run / "report" / "report.tsv"))
            for (part, stem), (ilm, ism) in self.truth.items():
                sample = samplekit.load_sample(run / f"prep_{part}" / f"{stem}.octf")
                h, c = layer_hits(sample.roi_channel, sample.offset, sample.orig_dims, ilm, ism)
                hits, cols = hits + h, cols + c
                if part == "heldout":
                    pred = dataio.read_mask_pgm(run / "pred" / f"{stem}_mask.pgm")
                    if _leaves_roi(pred, sample):
                        notes.append(f"{stem}: predicted mask leaves the ROI")
        within1 = hits / cols if cols else 0.0
        dice = dices[0] if dices else 0.0
        if len(set(dices)) > 1:
            notes.append(f"held-out Dice differs between repetitions: {dices}")
        if len(shas) > 1:
            notes.append("checkpoint SHA-256 differs between repetitions")
        if dice < DICE_FLOOR:
            notes.append(f"held-out mean Dice {dice:.4f} < {DICE_FLOOR}")
        if within1 < LAYER_FLOOR:
            notes.append(f"layer_within1 {within1:.4f} < {LAYER_FLOOR}")
        return Check(
            correct=bool(dices) and not notes,
            quality={
                "quality": dice,
                "heldout_dice": dice,
                "layer_within1": within1,
                "checkpoint_sha256": sorted(shas),
                "repetitions": len(dices),
                "errors": errors,
            },
            notes=notes,
        )


class FrameTrain(Workload):
    name = "frame_train"
    scan_dims = (496, 512)

    def setup(self, index: int) -> str:
        image, mask, ilm, ism = phantom(self.seed, 0, *self.scan_dims)
        sample = samplekit.prepare_sample(image, PRODUCTION_FRAME)
        target, _ = samplekit.pad_to_reference(mask.astype(np.float32), PRODUCTION_FRAME)
        self.data = [(sample, target)]
        self.hits = layer_hits(sample.roi_channel, sample.offset, sample.orig_dims, ilm, ism)
        return hashlib.sha256(sample.values.tobytes() + target.tobytes()).hexdigest()

    def unit(self, index: int) -> Unit:
        # One step per train() call, so that no step's graph outlives it.
        losses = []
        t0 = time.perf_counter()
        try:
            trainer.train(
                self.data,
                tensornet.UNetConfig(seed=PRODUCTION_SEED),
                trainer.TrainConfig(batch_size=1, epochs=1, seed=derive_seed(PRODUCTION_SEED, 1)),
                log_fn=lambda epoch, loss: losses.append(loss),
            )
        except OctCystError as e:
            error = str(e)
        else:
            error = None
        seconds = time.perf_counter() - t0
        # Each graph is a reference cycle (a tensor's backward closure
        # holds the tensor), so only the cycle collector frees it; collect
        # here so the next step never runs beside this step's graph.
        gc.collect()
        return Unit(
            seconds, 1, seconds, 1, int(error is not None), outputs={"loss": losses, "error": error}
        )

    def check(self, units: list) -> Check:
        within1 = self.hits[0] / self.hits[1]
        notes = []
        losses = [v for u in units for v in u.outputs["loss"]]
        if not all(math.isfinite(v) for v in losses):
            notes.append(f"non-finite training loss: {losses}")
        if within1 < LAYER_FLOOR:
            notes.append(f"layer_within1 {within1:.4f} < {LAYER_FLOOR}")
        errors = [u.outputs["error"] for u in units if u.failed]
        return Check(
            correct=bool(losses) and not notes,
            quality={
                "quality": within1, "layer_within1": within1, "losses": losses, "errors": errors,
            },
            notes=notes,
        )


class ClinicPredict(Workload):
    name = "clinic_predict"
    widths = (512, 1024)
    rows = 496
    n_pairs = 4

    def setup(self, index: int) -> str:
        inputs = self.work / f"inputs{index}"
        if inputs.exists():
            shutil.rmtree(inputs)
        inputs.mkdir(parents=True)
        self.scans = []
        for p in range(self.n_pairs):
            pair = []
            for k, cols in enumerate(self.widths):
                i = p * len(self.widths) + k
                image, _, ilm, ism = phantom(self.seed, i, self.rows, cols)
                path = inputs / f"scan_{i:03d}.pgm"
                dataio.write_pgm(image, path)
                pair.append((path, ilm, ism))
            self.scans.append(pair)
        # the production network from a seeded checkpoint; loading it is
        # part of set-up, as a clinic loads its model once
        net_cfg = tensornet.UNetConfig(seed=derive_seed(self.seed, 99))
        _, params = tensornet.build_unet(net_cfg)
        checkpoint = trainer.Checkpoint(net_cfg, params.values())
        trainer.save_checkpoint(checkpoint, inputs / "checkpoint.bin")
        self.checkpoint = trainer.load_checkpoint(inputs / "checkpoint.bin")
        self.inputs = inputs
        return digest(list(inputs.iterdir()))

    def unit(self, index: int) -> Unit:
        out = self.work / f"run{index}"
        out.mkdir(parents=True, exist_ok=True)
        pair = self.scans[index % len(self.scans)]
        attempted = failed = 0
        latencies, results = [], []
        t0 = time.perf_counter()
        for path, ilm, ism in pair:
            attempted += 1
            s0 = time.perf_counter()
            try:
                sample = samplekit.prepare_sample(dataio.read_pgm(path), PRODUCTION_FRAME)
                prob, mask = trainer.predict(self.checkpoint, sample)
                dataio.write_float_raster(prob, out / f"{path.stem}_prob.octf")
                dataio.write_mask_pgm(mask, out / f"{path.stem}_mask.pgm")
            except OctCystError as e:
                failed += 1
                results.append((path.name, None, None, None, str(e)))
                continue
            latencies.append(time.perf_counter() - s0)
            results.append((path.name, sample, mask, (ilm, ism), None))
        seconds = time.perf_counter() - t0
        return Unit(
            seconds, attempted - failed, seconds, attempted, failed,
            outputs={"results": results, "latencies": latencies},
        )

    def check(self, units: list) -> Check:
        # a scan that raised counts as failed, not as a wrong output
        notes, errors, hits, cols, latencies = [], [], 0, 0, []
        for u in units:
            latencies += u.outputs["latencies"]
            for name, sample, mask, truth, error in u.outputs["results"]:
                if error is not None:
                    errors.append(f"{name}: {error}")
                    continue
                if _leaves_roi(mask, sample):
                    notes.append(f"{name}: predicted mask leaves the ROI")
                h, c = layer_hits(sample.roi_channel, sample.offset, sample.orig_dims, *truth)
                hits, cols = hits + h, cols + c
        within1 = hits / cols if cols else 0.0
        if within1 < LAYER_FLOOR:
            notes.append(f"layer_within1 {within1:.4f} < {LAYER_FLOOR}")
        return Check(
            correct=cols > 0 and not notes,
            quality={
                "quality": within1,
                "layer_within1": within1,
                "scan_latency_p50_s": float(np.median(latencies)) if latencies else None,
                "scans": len(latencies),
                "errors": errors,
            },
            notes=notes,
        )


def _leaves_roi(mask: np.ndarray, sample) -> bool:
    roi = samplekit.crop_from_reference(sample.roi_channel, sample.offset, sample.orig_dims)
    return bool(np.any((mask != 0) & (roi == 0)))


def _mean_dice(report_tsv: Path) -> float:
    for line in report_tsv.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if fields[0] == "mean":
            return float(fields[3])
    raise ValueError(f"{report_tsv}: no mean row")


WORKLOADS = {w.name: w for w in (DeskE2E, FrameTrain, ClinicPredict)}
