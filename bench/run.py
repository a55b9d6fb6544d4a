"""Benchmark entry point.

    python3 bench/run.py --workload desk_e2e --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports octcyst from its
``src`` directory.  Set-up (making the inputs from --seed) runs at least
three times and is timed; then whole units of work run until --seconds have
passed (at least one).  With --trace 0 the last stdout line carries the
end-to-end metrics.  With --trace 1 the same units run once untraced and
once more with every octcyst module wrapped by `tracer.Tracer`, and the
last line carries the per-layer metrics.  The line before it, and
``.bench_results/<workload>-seed<n>-trace<t>.json``, hold the full record:
machine, per-unit times, correctness notes and the span and per-op tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import ELEMENTWISE, OP_KINDS, Tracer

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_REPEATS times and, when it is cheap, until
# SETUP_MIN_S seconds have gone into it, so that its median is steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
MODULES = (
    "cli", "dataio", "preprocess", "retinagraph", "samplekit",
    "tensornet", "rng", "trainer", "metrics",
)

# The 3x3 convolutions of the production network (the desk network has
# only aspp branches 0-2); each gets a forward and a backward GFLOP/s.
CONV_NAMES = (
    [f"enc{lvl}.conv{i}" for lvl in (1, 2, 3) for i in (1, 2)]
    + ["bott.conv1"]
    + [f"bott.aspp.branch{i}" for i in range(5)]
    + ["bott.conv2"]
    + [f"dec{lvl}.conv{i}" for lvl in (3, 2, 1) for i in (1, 2)]
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "layer_within1": "frac",
    "quality": "frac",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"trace_overhead_frac": "frac", "machine.sgemm_gflops": "GFLOP/s"}
    seconds = [f"{mod}.self_s" for mod in MODULES] + [
        "preprocess.bilateral_filter_s",
        "retinagraph.segment_layers_s",
        "retinagraph.shortest_layer_path_s",
        "retinagraph.vertical_gradient_s",
        "retinagraph.classify_layer_s",
        "retinagraph.cut_search_s",
        "samplekit.prepare_sample_s",
        "samplekit.prepare_sample_self_s",
        "dataio.read_s",
        "dataio.write_s",
        "tensornet.forward_s",
        "tensornet.backward_s",
    ]
    seconds += [f"tensornet.{k}.{d}_s" for k in OP_KINDS + (ELEMENTWISE,) for d in ("fwd", "bwd")]
    seconds += [
        "rng.uniform_array_s",
        "trainer.bce_loss_s",
        "trainer.adam_step_s",
        "trainer.predict_s",
        "trainer.build_unet_s",
        "metrics.evaluate_s",
    ]
    units.update({name: "s" for name in seconds})
    units["dataio.bytes_written"] = "B"
    units["tensornet.op_calls_per_sample"] = "count"
    for name in CONV_NAMES:
        units[f"tensornet.conv.{name}.fwd_gflops"] = "GFLOP/s"
        units[f"tensornet.conv.{name}.bwd_gflops"] = "GFLOP/s"
    units["tensornet.conv_roof_frac"] = "frac"
    return units


def pin_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy
    is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def sgemm_gflops(np, n: int = 2048, reps: int = 5) -> float:
    """Best-of-`reps` float32 n x n matrix product rate: this machine's roof."""
    rng = np.random.default_rng(0)
    a = rng.random((n, n), dtype=np.float32)
    b = rng.random((n, n), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def machine_record(np, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": nproc,
        "blas": vendor,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "sgemm_gflops": sgemm_gflops(np),
    }


def per_layer_metrics(tr, n_units: int, roof: float, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run, seconds and bytes per unit of
    work; also returns the parent spans of each span-based metric."""
    def per(v):
        return v / n_units

    m = {"trace_overhead_frac": overhead, "machine.sgemm_gflops": roof}
    parents = {}
    totals = module_totals(tr)
    for mod in MODULES:
        m[f"{mod}.self_s"] = per(totals.get(mod, (0.0, 0))[0])

    def span_total(metric, span):
        m[metric] = per(tr.total(span))
        parents[metric] = tr.parents(span)

    span_total("preprocess.bilateral_filter_s", "preprocess.bilateral_filter")
    for f in ("segment_layers", "shortest_layer_path", "vertical_gradient", "classify_layer"):
        span_total(f"retinagraph.{f}_s", f"retinagraph.{f}")
    # the second, restricted search runs inside segment_layers itself
    m["retinagraph.cut_search_s"] = per(tr.self_time("retinagraph.segment_layers"))
    parents["retinagraph.cut_search_s"] = ["retinagraph.segment_layers"]
    span_total("samplekit.prepare_sample_s", "samplekit.prepare_sample")
    m["samplekit.prepare_sample_self_s"] = per(tr.self_time("samplekit.prepare_sample"))
    parents["samplekit.prepare_sample_self_s"] = ["samplekit.prepare_sample"]
    for metric, words in (("dataio.read_s", ("read", "load")), ("dataio.write_s", ("write",))):
        total, parents[metric] = tr.outermost("dataio.", words)
        m[metric] = per(total)
    m["dataio.bytes_written"] = per(tr.counters["dataio.bytes_written"])
    parents["dataio.bytes_written"] = tr.parents("dataio.atomic_write_bytes")
    span_total("tensornet.forward_s", "tensornet.forward")
    span_total("tensornet.backward_s", "tensornet.backward")
    counts = tr.forward_ops.get(True) or tr.forward_ops.get(False) or {0}
    m["tensornet.op_calls_per_sample"] = min(counts)
    parents["tensornet.op_calls_per_sample"] = ["tensornet.forward"]
    for kind in OP_KINDS + (ELEMENTWISE,):
        for d in ("fwd", "bwd"):
            m[f"tensornet.{kind}.{d}_s"] = per(tr.kind_time[f"{kind}.{d}"])
            parents[f"tensornet.{kind}.{d}_s"] = tr.kind_parents(kind, d)
    flops = seconds = 0.0
    for name in CONV_NAMES:
        row = tr.conv_table.get(name)
        for d in ("fwd", "bwd"):
            ok = row is not None and row[f"{d}_s"] > 0
            rate = row[f"{d}_flops"] / row[f"{d}_s"] / 1e9 if ok else 0.0
            m[f"tensornet.conv.{name}.{d}_gflops"] = rate
            parents[f"tensornet.conv.{name}.{d}_gflops"] = tr.kind_parents("conv2d", d)
    for row in tr.conv_table.values():
        if row["op"] == "conv2d" and row["kernel"][2:] == [3, 3]:
            flops += row["fwd_flops"] + row["bwd_flops"]
            seconds += row["fwd_s"] + row["bwd_s"]
    m["tensornet.conv_roof_frac"] = flops / seconds / 1e9 / roof if seconds > 0 else 0.0
    parents["tensornet.conv_roof_frac"] = tr.kind_parents("conv2d", "fwd")
    span_total("rng.uniform_array_s", "rng.uniform_array")
    for f in ("bce_loss", "adam_step", "predict"):
        span_total(f"trainer.{f}_s", f"trainer.{f}")
    span_total("trainer.build_unet_s", "tensornet.build_unet")
    total, parents["metrics.evaluate_s"] = tr.outermost("metrics.")
    m["metrics.evaluate_s"] = per(total)
    return m, parents


def module_totals(tr) -> dict:
    """Self time and span count of each module: its busy time, excluding
    the time of the calls it makes into other spans."""
    totals = {}
    for (name, _), (calls, _, self_s) in tr.spans.items():
        mod = name.split(".", 1)[0]
        t = totals.setdefault(mod, [0.0, 0])
        t[0] += self_s
        t[1] += calls
    return {mod: tuple(t) for mod, t in sorted(totals.items())}


def run_units(workload, seconds: float, start=0, count=None, tracer=None) -> list:
    """Run units until `seconds` have passed (at least one), or exactly
    `count` units; under a tracer each unit is a root span."""
    units = []
    t0 = time.perf_counter()
    i = start
    while True:
        if tracer is None:
            units.append(workload.unit(i))
        else:
            with tracer.span(f"bench.{workload.name}"):
                units.append(workload.unit(i))
        i += 1
        if count is not None:
            if len(units) >= count:
                return units
        elif time.perf_counter() - t0 >= seconds:
            return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import octcyst

    if not Path(octcyst.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"octcyst imported from {octcyst.__file__}, not {ROOT / 'src'}")
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    machine = machine_record(np, nproc)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        setup_s, digests = [], set()
        while len(setup_s) < SETUP_REPEATS or (
            sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS
        ):
            t0 = time.perf_counter()
            digests.add(workload.setup(len(setup_s)))
            setup_s.append(time.perf_counter() - t0)

        units = run_units(workload, args.seconds)
        traced, tr = [], None
        if args.trace:
            tr = Tracer()
            tr.install()
            try:
                traced = run_units(workload, 0, start=len(units), count=len(units), tracer=tr)
            finally:
                tr.restore()
        check = workload.check(units + traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    notes = list(check.notes)
    if len(digests) != 1:
        notes.append("set-up gave different inputs for the same seed")
    all_units = units + traced
    wall = statistics.median(u.seconds for u in units)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_s": setup_s,
        "unit_s": [u.seconds for u in units],
        "stage_s": [u.stage_s for u in units if u.stage_s],
        "quality": check.quality,
        "notes": notes,
    }
    if args.trace:
        traced_wall = statistics.median(u.seconds for u in traced)
        overhead = traced_wall / wall - 1.0
        values, parents = per_layer_metrics(tr, len(traced), machine["sgemm_gflops"], overhead)
        units_of = per_layer_units()
        record["traced_unit_s"] = [u.seconds for u in traced]
        record["parents"] = parents
        record["modules"] = {
            mod: {"self_s": self_s, "calls": calls}
            for mod, (self_s, calls) in module_totals(tr).items()
        }
        record["op_calls_per_forward"] = {
            ("train" if k else "eval"): sorted(v) for k, v in tr.forward_ops.items()
        }
        record["spans"] = [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(tr.spans.items(), key=lambda kv: -kv[1][1])
        ]
        record["ops"] = tr.conv_table
        record["flops_and_bytes"] = "computed from operand shapes"
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "samples_per_s": sum(u.samples for u in units) / sum(u.sample_seconds for u in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layer_within1": check.quality["layer_within1"],
            "quality": check.quality["quality"],
        }
        units_of = END_TO_END
    result = {
        "correct": check.correct and not notes,
        "attempted": sum(u.attempted for u in all_units),
        "failed": sum(u.failed for u in all_units),
        "metrics": {k: {"value": values[k], "unit": units_of[k]} for k in units_of},
    }
    record["result"] = result
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    text = json.dumps(record, default=str)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
