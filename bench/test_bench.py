"""Tests for the benchmark's own code: the tracer, the FLOP count, the
restoration of wrapped functions, seeded inputs and BENCHMARK.json."""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import octcyst.cli  # noqa: E402  (loads every octcyst module)
from octcyst import tensornet  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, conv2d_flops  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_span_minus_child_coverage():
    # parent 0..10, children 1..3 and 4..5 -> self 10 - 3 = 7
    tr = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]))
    parent = tr.enter("a")
    tr.exit(tr.enter("b"))
    tr.exit(tr.enter("c"))
    tr.exit(parent)
    assert tr.spans[("a", None)] == [1, 10.0, 7.0]
    assert tr.spans[("b", "a")] == [1, 2.0, 2.0]
    assert tr.spans[("c", "a")] == [1, 1.0, 1.0]
    assert tr.self_time("a") == 7.0
    assert tr.parents("b") == ["a"]


def test_conv2d_flops_hand_computed():
    # 4 filters x 3 channels x 3x3 taps x 5x7 pixels multiply-adds, x2
    assert conv2d_flops((3, 5, 7), (4, 3, 3, 3)) == 2 * 4 * 3 * 9 * 35 == 7560
    assert conv2d_flops((2, 3, 5, 7), (4, 3, 1, 1)) == 2 * 2 * 4 * 3 * 35


def test_traced_conv2d_records_named_flops_and_keeps_results():
    cfg = tensornet.UNetConfig(
        input_channels=2, base_channels=2, depth=1, bottleneck_channels=4,
        aspp_rates=(1, 2), dropout_per_level=(0.1, 0.2), seed=5,
    )
    x = np.random.default_rng(0).random((2, 8, 8)).astype(np.float32)

    def grads():
        net, params = tensornet.build_unet(cfg)
        out = net.forward(x, training=True, seed=3)
        tensornet.backward(tensornet.mean(out))
        return {n: t.grad.copy() for n, t in params.items()}

    plain = grads()
    tr = Tracer()
    tr.install()
    try:
        traced = grads()
    finally:
        tr.restore()
    assert plain.keys() == traced.keys()
    for name in plain:
        assert np.array_equal(plain[name], traced[name]), name
    row = tr.conv_table["enc1.conv1"]
    assert row["fwd_flops"] == conv2d_flops((2, 8, 8), (2, 2, 3, 3))
    # the network input needs no gradient: weight gradient only
    assert row["bwd_flops"] == row["fwd_flops"]
    assert tr.conv_table["enc1.conv2"]["bwd_flops"] == 2 * tr.conv_table["enc1.conv2"]["fwd_flops"]
    assert tr.kind_time["conv2d.bwd"] > 0
    assert len(tr.forward_ops[True]) == 1


def _octcyst_namespace():
    mods = {n: m for n, m in sys.modules.items() if n.startswith("octcyst") and m is not None}
    snap = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    snap[("UNet", "forward")] = tensornet.UNet.__dict__["forward"]
    return snap


def test_wrappers_fully_restored():
    before = _octcyst_namespace()
    tr = Tracer()
    tr.install()
    try:
        during = _octcyst_namespace()
        changed = [k for k in before if during.get(k) is not before[k]]
        assert ("octcyst.tensornet.unet", "conv2d") in changed
        assert ("octcyst.samplekit", "segment_layers") in changed
        assert ("UNet", "forward") in changed
    finally:
        tr.restore()
    after = _octcyst_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def setup_digest(seed, name):
        return workloads.DeskE2E(seed, tmp_path / name).setup(0)

    assert setup_digest(3, "a") == setup_digest(3, "b")
    assert setup_digest(3, "a") != setup_digest(4, "c")
    img_a = workloads.phantom(11, 0, 496, 512)[0]
    assert np.array_equal(img_a, workloads.phantom(11, 0, 496, 512)[0])
    assert not np.array_equal(img_a, workloads.phantom(12, 0, 496, 512)[0])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
