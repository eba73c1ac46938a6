"""Span tracer for localattn, attached from outside the package.

`Tracer.install()` rebinds public functions and layer methods on the imported
`localattn` modules; `uninstall()` restores them. Each wrapped call records a
span. A span's self time is its duration minus the time of the spans nested
directly inside it, so summing self times over a unit never counts a
nanosecond twice. `tensorops` and `reference` calls are detail spans: they
are timed on their own but are not subtracted from the layer that calls
them, so a layer's self time still includes its softmax and padding.

Saved-context bytes count each buffer once, at the size of the array that
owns the memory: a window view of a padded copy counts the copy once.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

LAYER_KINDS = ("local_attention", "attention_stem", "conv_spatial", "conv_pointwise",
               "batchnorm", "max_pool", "avg_pool", "elementwise")
FLOP_KINDS = ("local_attention", "attention_stem", "conv_spatial", "conv_pointwise")
TENSOROPS = {"softmax_axis": "softmax", "pad_hw": "pad", "window_validity": "window_validity"}
MB = 1024.0 * 1024.0


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a view's memory (following stride-trick wrappers)."""
    root = a
    obj = a.base
    while obj is not None:
        if isinstance(obj, np.ndarray):
            root = obj
        obj = getattr(obj, "base", None)
    return root


def arrays_in(obj):
    """Every ndarray inside a nested context (tuples, lists, dicts)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays_in(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from arrays_in(item)


class BufferLedger:
    """Counts distinct owner buffers; weak references guard against id reuse."""

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}

    def reset(self) -> None:
        self._seen.clear()

    def new_bytes(self, ctx) -> int:
        total = 0
        for a in arrays_in(ctx):
            root = owner(a)
            ref = self._seen.get(id(root))
            if ref is not None and ref() is root:
                continue
            self._seen[id(root)] = weakref.ref(root)
            total += root.nbytes
        return total


def ctx_bytes(ctx) -> int:
    """Distinct owner bytes held by one context."""
    return BufferLedger().new_bytes(ctx)


def layer_kind(layer) -> str:
    import localattn as la
    if isinstance(layer, la.LocalAttention):
        return "local_attention"
    if isinstance(layer, la.AttentionStem):
        return "attention_stem"
    if isinstance(layer, la.Conv2d):
        return "conv_spatial" if layer.k > 1 else "conv_pointwise"
    if isinstance(layer, la.Linear):
        return "conv_pointwise"
    if isinstance(layer, la.BatchNorm2d):
        return "batchnorm"
    if isinstance(layer, la.MaxPool):
        return "max_pool"
    if isinstance(layer, (la.AvgPool2x2, la.GlobalAvgPool)):
        return "avg_pool"
    if isinstance(layer, la.ReLU):
        return "elementwise"
    return "block"


STEM = "stem.attn"


def runtime_name_for_entry(entry_name: str) -> str:
    """Runtime layer a ledger entry prices: the attention stem's `.norm` and
    `.pool` entries belong to the one `stem.attn` layer."""
    return STEM if entry_name.startswith(STEM + ".") else entry_name


def layer_names(model) -> dict:
    """Runtime dotted name of every layer object in a built model."""
    import localattn as la
    out = {}

    def visit(prefix, layer):
        out[layer] = prefix
        if isinstance(layer, la.Bottleneck):
            visit(prefix + ".main", layer.main)
            if layer.shortcut is not None:
                visit(prefix + ".shortcut", layer.shortcut)
        elif isinstance(layer, la.Sequential):
            for name, sub in layer.named_layers:
                visit(f"{prefix}.{name}", sub)
        elif isinstance(layer, la.AttentionStem):
            visit(prefix + ".norm", layer.norm)

    for name, layer in model.named_layers:
        visit(name, layer)
    return out


class _Frame:
    __slots__ = ("label", "child")

    def __init__(self, label):
        self.label = label
        self.child = 0.0


class Tracer:
    """Collects spans while installed; totals are read with `per_unit`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.self_s = defaultdict(float)      # label -> self seconds
        self.total_s = defaultdict(float)     # label -> inclusive seconds
        self.calls = defaultdict(int)         # label -> calls
        self.ctx_b = defaultdict(int)         # label -> distinct saved bytes
        self.rows = defaultdict(lambda: [0.0, 0.0, 0, 0])  # name -> fwd, bwd, calls, ctx
        self.flop_time = defaultdict(float)   # kind -> inclusive fwd time of named layers
        self.flops = defaultdict(float)       # kind -> ledger FLOPs of those calls
        self.names = weakref.WeakKeyDictionary()
        self.flops_per_image = weakref.WeakKeyDictionary()   # layer -> ledger FLOPs
        self.buffers = BufferLedger()
        self.detail_depth = defaultdict(int)
        self.hidden = 0                       # >0 inside evaluate: layer spans not aggregated
        self.units = 0
        self.step_self = 0.0                  # self seconds of spans inside training steps
        self.in_step = False
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    def _enter(self, label):
        frame = _Frame(label)
        self.stack.append(frame)
        return frame, self.clock()

    def _exit(self, frame, t0, label):
        dt = self.clock() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += dt
        self_t = dt - frame.child
        if self.in_step:
            self.step_self += self_t
        if label is not None:
            self.self_s[label] += self_t
            self.total_s[label] += dt
            self.calls[label] += 1
        return dt, self_t

    def span(self, label, fn, *args, **kwargs):
        frame, t0 = self._enter(label)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, t0, label)

    def detail(self, label, fn, *args, **kwargs):
        """Timed on its own, not subtracted from the enclosing span; only the
        outermost call of a group is recorded."""
        group = label.split(".", 1)[0]
        if self.detail_depth[group] or self.hidden:
            return fn(*args, **kwargs)
        self.detail_depth[group] += 1
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.total_s[label] += self.clock() - t0
            self.calls[label] += 1
            self.detail_depth[group] -= 1

    def layer_call(self, phase, fn, layer, *args, **kwargs):
        kind = layer_kind(layer)
        visible = not self.hidden
        label = f"layers.{kind}.{phase}" if visible else None
        if phase == "fwd" and self.stack and self.stack[-1].label == "autodiff.gradcheck":
            self.calls["autodiff.gradcheck_forwards"] += 1
        frame, t0 = self._enter(label)
        try:
            out = fn(layer, *args, **kwargs)
        finally:
            dt, self_t = self._exit(frame, t0, label)
        if not visible:
            return out
        name = self.names.get(layer)
        if phase == "fwd":
            saved = self.buffers.new_bytes(out[1])
            self.ctx_b[f"layers.{kind}"] += saved
            if name is not None:
                self.rows[name][3] += saved
                per_image = self.flops_per_image.get(layer)
                if per_image is not None and kind in FLOP_KINDS:
                    self.flops[kind] += per_image * args[0].shape[0]
                    self.flop_time[kind] += dt
        if name is not None:
            row = self.rows[name]
            row[0 if phase == "fwd" else 1] += self_t
            if phase == "fwd":
                row[2] += 1
        return out

    # --------------------------------------------------------------- patching
    def name_model(self, model, ledger_report=None) -> None:
        """Register a model's dotted layer names and, optionally, the ledger
        FLOPs per image of each named layer (stem entries folded onto the
        stem layer, as `checks.ledger_join` maps them)."""
        priced = defaultdict(int)
        if ledger_report is not None:
            for e in ledger_report.entries:
                priced[runtime_name_for_entry(e.name)] += e.flops
        for layer, name in layer_names(model).items():
            self.names[layer] = name
            if name in priced:
                self.flops_per_image[layer] = priced[name]

    def _set(self, owner_obj, attr, value):
        self._undo.append((owner_obj, attr, getattr(owner_obj, attr)))
        setattr(owner_obj, attr, value)

    def _rebind_function(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("localattn"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_function(self, original, label, detail=False):
        call = self.detail if detail else self.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(label, original, *args, **kwargs)
        self._rebind_function(original, wrapper)

    def install(self) -> None:
        import localattn as la
        from localattn import (autodiff, cost, data, model, reference, tensorops, train,
                               verify)
        tracer = self

        for cls in (la.Conv2d, la.LocalAttention, la.AttentionStem, la.BatchNorm2d,
                    la.MaxPool, la.AvgPool2x2, la.ReLU, la.GlobalAvgPool, la.Linear,
                    la.Sequential, la.Bottleneck):
            for phase, attr in (("fwd", "forward"), ("bwd", "backward")):
                original = getattr(cls, attr)

                def method(layer, *args, _orig=original, _phase=phase, **kwargs):
                    return tracer.layer_call(_phase, _orig, layer, *args, **kwargs)
                self._set(cls, attr, functools.wraps(original)(method))

        model_forward = model.Model.forward

        def forward(m, x, training=False):
            if training:
                tracer.buffers.reset()
                tracer.in_step = True
            label = None if tracer.hidden else "model.forward"
            out = tracer.span(label, model_forward, m, x, training)
            if training:
                tracer.ctx_b["autodiff.tape"] += BufferLedger().new_bytes(
                    [entry[2] for entry in out[1].entries])
            return out
        self._set(model.Model, "forward", functools.wraps(model_forward)(forward))

        tape_backward = autodiff.GradTape.backward
        self._set(autodiff.GradTape, "backward", functools.wraps(tape_backward)(
            lambda tape, d: tracer.span("autodiff.backward", tape_backward, tape, d)))

        step = train.nesterov_step

        @functools.wraps(step)
        def nesterov_step(*args, **kwargs):
            try:
                return tracer.span("train.optimizer", step, *args, **kwargs)
            finally:
                tracer.in_step = False
        self._rebind_function(step, nesterov_step)

        evaluate = train.evaluate

        @functools.wraps(evaluate)
        def hidden_evaluate(*args, **kwargs):
            tracer.hidden += 1
            try:
                return tracer.span("train.evaluate", evaluate, *args, **kwargs)
            finally:
                tracer.hidden -= 1
        self._rebind_function(evaluate, hidden_evaluate)

        build = model.build_model

        @functools.wraps(build)
        def build_model(*args, **kwargs):
            built = tracer.span("model.build", build, *args, **kwargs)
            tracer.name_model(built, cost.ledger(built.spec))
            return built
        self._rebind_function(build, build_model)

        for original, label in ((train.cross_entropy_smoothed, "train.loss"),
                                (train.train_loop, "train.loop"),
                                (data.load_data, "data.load"),
                                (autodiff.gradcheck, "autodiff.gradcheck")):
            self._wrap_function(original, label)

        for original, label in ((verify.oracle_suite, "verify.oracle"),
                                (verify.invariant_suite, "verify.invariant"),
                                (verify.gradcheck_suite, "verify.gradcheck")):
            def suite(*args, _orig=original, _label=label, **kwargs):
                result = tracer.span(_label, _orig, *args, **kwargs)
                tracer.calls["verify.checks"] += len(result.checks)
                return result
            self._rebind_function(original, functools.wraps(original)(suite))

        save = model.save_checkpoint

        @functools.wraps(save)
        def save_checkpoint(path, arrays):
            tracer.ctx_b["model.checkpoint"] += sum(a.nbytes for a in arrays.values())
            return tracer.span("model.checkpoint", save, path, arrays)
        self._rebind_function(save, save_checkpoint)

        for attr, short in TENSOROPS.items():
            self._wrap_function(getattr(tensorops, attr), f"tensorops.{short}", detail=True)
        for attr, value in list(vars(reference).items()):
            if callable(value) and getattr(value, "__module__", "") == reference.__name__:
                self._wrap_function(value, "reference", detail=True)

    def uninstall(self) -> None:
        while self._undo:
            owner_obj, attr, value = self._undo.pop()
            setattr(owner_obj, attr, value)
        self.in_step = False

    # ---------------------------------------------------------------- results
    def per_unit(self) -> dict[str, float]:
        """Every per-layer metric, divided by the traced units."""
        u = max(self.units, 1)
        m: dict[str, float] = {}
        for kind in LAYER_KINDS:
            m[f"layers.{kind}.fwd_s"] = self.self_s[f"layers.{kind}.fwd"] / u
            m[f"layers.{kind}.bwd_s"] = self.self_s[f"layers.{kind}.bwd"] / u
            m[f"layers.{kind}.calls"] = (self.calls[f"layers.{kind}.fwd"]
                                         + self.calls[f"layers.{kind}.bwd"]) / u
            m[f"layers.{kind}.ctx_mb"] = self.ctx_b[f"layers.{kind}"] / MB / u
        for kind in FLOP_KINDS:
            t = self.flop_time[kind]
            m[f"layers.{kind}.gflop_s"] = self.flops[kind] / t / 1e9 if t else 0.0
        m["autodiff.tape_mb"] = self.ctx_b["autodiff.tape"] / MB / u
        m["tensorops.softmax_s"] = self.total_s["tensorops.softmax"] / u
        m["tensorops.softmax_calls"] = self.calls["tensorops.softmax"] / u
        m["tensorops.pad_s"] = self.total_s["tensorops.pad"] / u
        m["tensorops.window_validity_s"] = self.total_s["tensorops.window_validity"] / u
        m["autodiff.backward_s"] = self.total_s["autodiff.backward"] / u
        m["autodiff.tape_self_s"] = self.self_s["autodiff.backward"] / u
        m["train.optimizer_s"] = self.total_s["train.optimizer"] / u
        m["train.loss_s"] = self.total_s["train.loss"] / u
        m["model.forward_s"] = self.total_s["model.forward"] / u
        m["model.block_self_s"] = (self.self_s["layers.block.fwd"]
                                   + self.self_s["layers.block.bwd"]) / u
        m["train.evaluate_s"] = self.total_s["train.evaluate"] / u
        m["train.loop_self_s"] = self.self_s["train.loop"] / u
        m["model.checkpoint_s"] = self.total_s["model.checkpoint"] / u
        m["model.checkpoint_mb"] = self.ctx_b["model.checkpoint"] / MB / u
        for label, key in (("data.load", "data.load_s"), ("model.build", "model.build_s")):
            n = self.calls[label]
            m[key] = self.total_s[label] / n if n else 0.0
        m["autodiff.gradcheck_s"] = self.total_s["autodiff.gradcheck"] / u
        m["autodiff.gradcheck_forwards"] = self.calls["autodiff.gradcheck_forwards"] / u
        m["verify.oracle_s"] = self.total_s["verify.oracle"] / u
        m["verify.invariant_s"] = self.total_s["verify.invariant"] / u
        m["verify.gradcheck_s"] = self.total_s["verify.gradcheck"] / u
        m["verify.checks"] = self.calls["verify.checks"] / u
        m["reference.s"] = self.total_s["reference"] / u
        m["reference.calls"] = self.calls["reference"] / u
        return m

    def table(self) -> str:
        """Per named layer: forward and backward self time, calls, saved bytes."""
        u = max(self.units, 1)
        lines = [f"{'layer':<36s} {'fwd_ms':>10s} {'bwd_ms':>10s} {'fwd_calls':>9s} "
                 f"{'ctx_mb':>9s}   (per unit, {self.units} traced units)"]
        for name, (fwd, bwd, calls, saved) in self.rows.items():
            lines.append(f"{name:<36s} {1e3 * fwd / u:>10.3f} {1e3 * bwd / u:>10.3f} "
                         f"{calls / u:>9.2f} {saved / MB / u:>9.3f}")
        return "\n".join(lines)
