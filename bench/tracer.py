"""Span tracer that times octcyst from the outside.

`Tracer.install` replaces every public function of every loaded
``octcyst`` module, wherever a module holds a reference to it, with a
wrapper that opens a span named ``<layer>.<function>`` (the layer is the
first package component below ``octcyst``).  `Tracer.restore` puts every
original back.  Spans are aggregated as they close, keyed by (name, parent
name): call count, total time and self time, where self time is the span's
duration minus the part of it that its child spans cover.

Tensor operations of ``octcyst.tensornet`` get extra accounting: the
backward closure of each tensor they return is wrapped too, so backward
time is attributed to the op kind (and, for convolutions, to the
ParamStore name of the weight) that created the tensor, and convolution
FLOPs and bytes are computed from the operand shapes.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Op kinds reported on their own; every other tensor-returning op of
# tensornet.tensor / tensornet.layers counts as "elementwise".
OP_KINDS = ("conv2d", "transposed_conv2d", "max_pool2", "attention_gate", "aspp", "dropout")
ELEMENTWISE = "elementwise"
_OP_MODULES = ("octcyst.tensornet.tensor", "octcyst.tensornet.layers")
_NOT_OPS = ("backward", "grad_enabled")
_F32 = 4  # bytes per float32 element


def op_category(fn_name: str) -> str:
    return fn_name if fn_name in OP_KINDS else ELEMENTWISE


def conv2d_flops(x_shape, w_shape) -> int:
    """Multiply-adds x2 of a same-padded convolution, counted from shapes.

    x: (C, H, W) or (N, C, H, W); w: (F, C, k, k).  Every output pixel
    takes C*k*k multiply-adds per output channel, including taps that land
    in the zero padding."""
    *batch, _, h, w = x_shape
    f, c, kh, kw = w_shape
    n = batch[0] if batch else 1
    return 2 * n * f * c * kh * kw * h * w


def conv2d_bytes(x_shape, w_shape) -> int:
    """Bytes read and written by one forward convolution, from shapes:
    input, kernel and output, float32."""
    *batch, c, h, w = x_shape
    f = w_shape[0]
    n = batch[0] if batch else 1
    return _F32 * (n * c * h * w + math.prod(w_shape) + n * f * h * w)


def transposed_conv2d_flops(x_shape, w_shape) -> int:
    """x: (C, H, W) or (N, C, H, W); w: (C, F, 2, 2): each input pixel
    feeds C*F*4 multiply-adds."""
    *batch, c, h, w = x_shape
    _, f, kh, kw = w_shape
    n = batch[0] if batch else 1
    return 2 * n * c * f * kh * kw * h * w


def transposed_conv2d_bytes(x_shape, w_shape) -> int:
    *batch, c, h, w = x_shape
    _, f, kh, kw = w_shape
    n = batch[0] if batch else 1
    return _F32 * (n * c * h * w + c * f * kh * kw + n * f * kh * h * kw * w)


_SHAPE_COST = {
    "conv2d": (conv2d_flops, conv2d_bytes),
    "transposed_conv2d": (transposed_conv2d_flops, transposed_conv2d_bytes),
}


def _layer_of(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    """Nested span timers, counters and the octcyst wrappers.

    One tracer serves one single-threaded run: spans nest strictly, so the
    part of a span its children cover is the sum of their durations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, child coverage]
        # (name, parent) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.kind_time = defaultdict(float)  # "<kind>.fwd" / "<kind>.bwd"
        self.conv_table: dict[str, dict] = {}
        self.forward_ops: dict[bool, set[int]] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._op_stack: list[str] = []
        self._op_calls = 0
        self._param_names: dict[int, tuple[object, str]] = {}
        self._tensor_cls = None
        self.op_names: set[str] = set()

    # --- spans --------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed while {top[0]!r} is open")
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (frame[0], parent[0] if parent is not None else None)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[2]
        return duration

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def total(self, name: str) -> float:
        return sum(rec[1] for (n, _), rec in self.spans.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def parents(self, name: str) -> list:
        return sorted({p for (n, p) in self.spans if n == name}, key=str)

    def outermost(self, prefix: str, words=()) -> tuple[float, list]:
        """Total time and parents of the spans named `prefix`* that are not
        nested in another `prefix`* span, keeping names containing any of
        `words`."""
        keys = [
            (n, p)
            for n, p in self.spans
            if n.startswith(prefix)
            and not (p or "").startswith(prefix)
            and (not words or any(w in n for w in words))
        ]
        return sum(self.spans[k][1] for k in keys), sorted({p for _, p in keys}, key=str)

    def kind_parents(self, kind: str, direction: str) -> list:
        """Parents of the spans of one op kind, forward or backward."""
        if direction == "bwd":
            return self.parents(f"tensornet.{kind}.bwd")
        names = {f"tensornet.{a}" for a in self.op_names if op_category(a) == kind}
        return sorted({p for n, p in self.spans if n in names}, key=str)

    # --- wrappers -----------------------------------------------------------

    def install(self, package: str = "octcyst") -> None:
        """Wrap every public function of the loaded `package` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        tensor_mod = sys.modules.get(f"{package}.tensornet.tensor")
        self._tensor_cls = getattr(tensor_mod, "Tensor", None)
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(mod.__name__, attr, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        unet_mod = sys.modules.get(f"{package}.tensornet.unet")
        if unet_mod is not None:
            cls = unet_mod.UNet
            original = cls.__dict__["forward"]
            self._patches.append((cls, "forward", original))
            cls.forward = self._wrap_forward(original)

    def restore(self) -> None:
        """Put back every object `install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, module_name: str, attr: str, fn):
        name = f"{_layer_of(module_name)}.{attr}"
        if module_name in _OP_MODULES and attr not in _NOT_OPS:
            return self._wrap_op(name, attr, fn)
        if name == "tensornet.build_unet":
            return self._wrap_build(name, fn)
        # bytes written, counted from the argument of the one atomic writer
        counted = name == "dataio.atomic_write_bytes"
        tracer = self

        def wrapper(*args, **kwargs):
            if counted:
                data = args[1] if len(args) > 1 else kwargs["data"]
                tracer.counters["dataio.bytes_written"] += len(data)
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_build(self, name, fn):
        """build_unet: remember the ParamStore names of the new weights."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                net, store = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            # only the newest network runs, so only its names are kept
            tracer._param_names = {
                id(t): (t, pname[:-2] if pname.endswith(".w") else pname)
                for pname, t in store.items()
            }
            return net, store

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_forward(self, fn):
        """UNet.forward: span plus the number of op calls per pass, by mode."""
        tracer = self

        def forward(self_, *args, **kwargs):
            training = bool(kwargs.get("training", args[1] if len(args) > 1 else False))
            before = tracer._op_calls
            frame = tracer.enter("tensornet.forward")
            try:
                return fn(self_, *args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.forward_ops[training].add(tracer._op_calls - before)

        forward.__wrapped__ = fn
        return forward

    def _param_name(self, t) -> str:
        hit = self._param_names.get(id(t))
        return hit[1] if hit is not None and hit[0] is t else "unnamed"

    def _wrap_op(self, name, attr, fn):
        tracer = self
        self.op_names.add(attr)
        category = op_category(attr)
        cost = _SHAPE_COST.get(attr)

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            tracer._op_stack.append(category)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._op_stack.pop()
                duration = tracer.exit(frame)
            tensor_cls = tracer._tensor_cls
            if tensor_cls is None or not isinstance(out, tensor_cls):
                return out
            tracer._op_calls += 1
            tracer.kind_time[category + ".fwd"] += duration
            row, bwd_flops = None, 0
            if cost is not None:
                x = args[0] if args else kwargs["x"]
                w = args[1] if len(args) > 1 else kwargs["w"]
                row = tracer._conv_row(attr, x, w)
                flops = cost[0](x.data.shape, w.data.shape)
                row["calls"] += 1
                row["fwd_s"] += duration
                row["fwd_flops"] += flops
                row["fwd_bytes"] += cost[1](x.data.shape, w.data.shape)
                # weight grad and input grad each repeat the forward work
                bwd_flops = flops * (int(x.requires_grad) + int(w.requires_grad))
            bw = out._backward
            if bw is not None and not getattr(bw, "_bench_timed", False):
                stack = tracer._op_stack
                kinds = tuple(dict.fromkeys(stack + [category])) if stack else (category,)
                out._backward = tracer._timed_backward(bw, category, kinds, row, bwd_flops)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _conv_row(self, op: str, x, w) -> dict:
        pname = self._param_name(w)
        row = self.conv_table.get(pname)
        if row is None:
            row = self.conv_table[pname] = {
                "op": op,
                "kernel": list(w.data.shape),
                "input": list(x.data.shape),
                "calls": 0,
                "fwd_s": 0.0,
                "bwd_s": 0.0,
                "fwd_flops": 0,
                "bwd_flops": 0,
                "fwd_bytes": 0,
            }
        return row

    def _timed_backward(self, bw, category, kinds, row, bwd_flops):
        tracer = self
        span_name = f"tensornet.{category}.bwd"

        def timed():
            frame = tracer.enter(span_name)
            try:
                bw()
            finally:
                duration = tracer.exit(frame)
            for kind in kinds:
                tracer.kind_time[kind + ".bwd"] += duration
            if row is not None:
                row["bwd_s"] += duration
                row["bwd_flops"] += bwd_flops

        timed._bench_timed = True
        return timed
