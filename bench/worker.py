"""One benchmark process: set up one workload, time it, check it.

`run.py` starts this file in a fresh interpreter with BLAS and OpenMP limited
to one thread. Once set-up is done it prints `@ready <CPU seconds used so
far>` and, unless `--probe` is given, then runs the timed window and the
correctness checks and prints `@result <json>`. Other lines are check
outcomes for people to read.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import localattn as la  # noqa: E402
from localattn import model as M, train as T, verify as V  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

if os.path.dirname(os.path.abspath(la.__file__)) != os.path.join(ROOT, "src", "localattn"):
    raise SystemExit(f"localattn was imported from {la.__file__}, not from {ROOT}/src")

OUT = os.path.join(BENCH, "out")
DESK_TRAIN_IMAGES = 256      # two batches of 128 per epoch
DESK_VAL_IMAGES = 64
DESK_EPOCHS = 3
R50_IMAGES = 4               # distinct seeded images, cycled one per step
# The ResNet-50 updates run at learning rate 0: every step then does the same
# arithmetic on the same parameters. At batch 1 on random images the attention
# model's first gradients reach 5e6, so even 1e-3 overflows it within 5 steps.
R50_LR = 0.0
PATCH = 2


def now():
    """(wall, CPU) seconds. The CPU clock of this single-threaded process
    leaves out the time the host lends its CPU to other guests (steal)."""
    return time.perf_counter(), time.process_time()


def since(start):
    wall, cpu = now()
    return wall - start[0], cpu - start[1]


def read_spec(name: str):
    mapping = M.read_config(os.path.join(ROOT, "configs", name))
    return mapping, M.ModelSpec.from_mapping(
        {k: v for k, v in mapping.items() if k in M.MODEL_CONFIG_KEYS})


class StepClock:
    """Times each training step inside `train_loop` from outside: a step runs
    from the training-mode `Model.forward` call to the end of the
    `nesterov_step` that follows it. Also keeps the step losses and the last
    step's gradients and model for the checks."""

    def __init__(self):
        self.times: list[float] = []
        self.losses: list[float] = []
        self.last = None
        self.model = None
        self._start = None
        self._undo = []

    def install(self):
        clock = self
        forward = M.Model.forward

        @functools.wraps(forward)
        def timed_forward(model, x, training=False):
            if training:
                clock._start = now()
                clock.model = model
            return forward(model, x, training)

        loss_fn = T.cross_entropy_smoothed

        @functools.wraps(loss_fn)
        def kept_loss(*args, **kwargs):
            out = loss_fn(*args, **kwargs)
            clock.losses.append(out[0])
            return out

        step = T.nesterov_step

        @functools.wraps(step)
        def timed_step(params, grads, state, lr):
            out = step(params, grads, state, lr)
            clock.times.append(since(clock._start))
            clock.last = (clock.model, params, grads, clock.losses[-1])
            return out

        self._undo = [(M.Model, "forward", forward), (T, "cross_entropy_smoothed", loss_fn),
                      (T, "nesterov_step", step)]
        M.Model.forward = timed_forward
        T.cross_entropy_smoothed = kept_loss
        T.nesterov_step = timed_step

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)


class Workload:
    """A workload repeats `run_once` and records one (wall, CPU) time per unit
    in `times`; a unit is a training step or a verify pass."""

    run_is_unit = True      # one run_once call is one unit

    def __init__(self):
        self.times: list[tuple[float, float]] = []

    def setup(self):
        pass

    def warm_up(self):
        pass

    def attempted(self) -> int:
        return len(self.times)

    def failed(self) -> int:
        return 0


class DeskTrain(Workload):
    """`configs/desk_blocks.cfg` through `train.train_loop`: whole epochs with
    evaluation, EMA evaluation and checkpoints, on a seeded blocks subset."""

    run_is_unit = False     # its units are the steps inside each train_loop call

    def __init__(self, seed: int):
        mapping, self.spec = read_spec("desk_blocks.cfg")
        source = la.DatasetSource.from_mapping(
            {k: v for k, v in mapping.items() if k.startswith("data_")})
        source.size = DESK_TRAIN_IMAGES + DESK_VAL_IMAGES
        source.limit = DESK_TRAIN_IMAGES
        source.val_fraction = DESK_VAL_IMAGES / DESK_TRAIN_IMAGES
        source.seed = seed
        self.source = source
        self.config = T.TrainConfig.from_mapping(mapping)
        self.config.epochs = DESK_EPOCHS
        self.config.seed = seed
        self.seed = seed
        self.out_dir = os.path.join(OUT, "desk_train")
        self.clock = StepClock()
        self.times = self.clock.times
        self.histories = []

    def setup(self):
        # the prologue train_loop itself runs: data, model, optimizer state
        (self.train_x, self.train_y), _ = la.load_data(self.source)
        self.model = la.build_model(self.spec, seed=self.config.seed)
        self.state = T.OptimizerState.for_params(self.model.params)

    def warm_up(self):
        """One untimed step at batch 128 on the set-up model, so the allocator
        has grown to a step's needs before the first timed epoch."""
        batch = slice(0, self.config.batch_size)
        logits, tape = self.model.forward(self.train_x[batch], training=True)
        _, dlogits = T.cross_entropy_smoothed(logits, self.train_y[batch])
        _, grads = tape.backward(dlogits)
        T.nesterov_step(self.model.params, grads, self.state, 0.0)
        self.clock.install()

    def run_once(self) -> int:
        history = T.train_loop(self.spec, self.source, self.config, out_dir=self.out_dir)
        self.histories.append(history)
        return self.config.epochs * len(self.train_x)

    def checks(self):
        self.clock.uninstall()
        rng = np.random.default_rng(self.seed + 1000)
        out = []
        for i, h in enumerate(self.histories):
            out.append((f"train_loop call {i + 1}: loss falls", *checks.loss_falls(h.rows)))
        rows = {tuple(h.rows) for h in self.histories}
        out.append(("train_loop calls give identical metric rows", len(rows) == 1,
                    f"{len(self.histories)} calls, {len(rows)} distinct histories"))
        model, params, grads, loss = self.clock.last
        out.append(("last step gradients", *checks.gradients(params, grads, loss)))
        out.append(("every step loss finite", all(map(math.isfinite, self.clock.losses)),
                    f"{len(self.clock.losses)} losses"))

        # criterion 8: the first step again from a fresh build with the same seed
        fresh = la.build_model(self.spec, seed=self.config.seed)
        order = np.random.default_rng(self.config.seed + 1).permutation(len(self.train_x))
        batch = order[:self.config.batch_size]
        logits, _ = fresh.forward(self.train_x[batch], training=True)
        first, _ = T.cross_entropy_smoothed(logits, self.train_y[batch],
                                            self.config.label_smoothing)
        steps_per_call = len(self.clock.losses) // len(self.histories)
        for i in range(len(self.histories)):
            recorded = self.clock.losses[i * steps_per_call]
            out.append((f"train_loop call {i + 1}: first-step loss bitwise equal to a "
                        f"fresh build", *checks.same_bits(recorded, first)))

        images = self.train_x[batch[:4]]
        for target in ("stem.attn", "group1.block0.main.spatial",
                       "group2.block0.main.spatial"):
            out += checks.output_patches(model, images, target, rng, PATCH)

        model64 = la.build_model(self.spec, seed=self.config.seed, dtype=np.float64)
        out.append(("f64 directional derivative of the whole loss",
                    *checks.directional_derivative(
                        model64, self.train_x[batch[:4]].astype(np.float64),
                        self.train_y[batch[:4]], self.config.label_smoothing, rng)))
        out.append(("ledger join", *checks.ledger_join(model, la.ledger(self.spec))))
        return out


class ResNet50(Workload):
    """Training steps of a ResNet-50 config at 224, batch 1, f32."""

    def __init__(self, config: str, warm_up_steps: int, seed: int):
        super().__init__()
        _, self.spec = read_spec(config)
        self.warm_up_steps = warm_up_steps
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        res = self.spec.input_resolution
        self.images = rng.standard_normal((R50_IMAGES, 1, 3, res, res)).astype(np.float32)
        self.labels = rng.integers(0, self.spec.num_classes, size=(R50_IMAGES, 1))
        self.model = la.build_model(self.spec, seed=self.seed)
        self.params = self.model.params
        self.state = T.OptimizerState.for_params(self.params)

    def warm_up(self):
        """Untimed steps, so the allocator has grown to a step's needs: the
        first steps page in fresh memory and run slower. The attention model
        needed two before its step times stopped falling."""
        for _ in range(self.warm_up_steps):
            self.run_once()
        self.times.clear()

    def run_once(self) -> int:
        i = len(self.times) % R50_IMAGES
        start = now()
        logits, tape = self.model.forward(self.images[i], training=True)
        loss, dlogits = T.cross_entropy_smoothed(logits, self.labels[i])
        _, grads = tape.backward(dlogits)
        del tape
        T.nesterov_step(self.params, grads, self.state, R50_LR)
        self.times.append(since(start))
        self.last = (grads, loss)
        return 1

    def checks(self):
        rng = np.random.default_rng(self.seed + 1000)
        grads, loss = self.last
        out = [("last step gradients", *checks.gradients(self.params, grads, loss))]
        del self.last, grads
        targets = (("stem.attn", "group1.block0.main.spatial")
                   if self.spec.stem == "attention_stem"
                   else ("stem.conv", "group1.block0.main.spatial"))
        for target in targets:
            out += checks.output_patches(self.model, self.images[0], target, rng, PATCH)
        out.append(("ledger join", *checks.ledger_join(self.model, la.ledger(self.spec))))
        return out


class VerifySuite(Workload):
    """`verify.run_all` at the program's own seed and tolerances, in f64. The
    suites' tolerances hold for that seed, so `--seed` does not change it."""

    SEED = 0

    def __init__(self, seed: int):
        super().__init__()
        self.results = []

    def run_once(self) -> int:
        start = now()
        results = V.run_all(self.SEED)
        self.times.append(since(start))
        self.results.append(results)
        return sum(len(s.checks) for s in results)

    def attempted(self):
        return sum(len(s.checks) for r in self.results for s in r)

    def checks(self):
        return [(f"run_all pass {i + 1}: every suite passes, none empty",
                 *checks.verify_suites(r)) for i, r in enumerate(self.results)]

    def failed(self):
        return sum(1 for r in self.results for s in r for c in s.checks if not c.passed)


WORKLOADS = {
    "desk_train": DeskTrain,
    "r50_attention": functools.partial(ResNet50, "resnet50_attention.cfg", 2),
    "r50_conv": functools.partial(ResNet50, "resnet50_conv.cfg", 1),
    "verify_suite": VerifySuite,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_window(work, seconds: float):
    """Whole runs of the workload until `seconds` of wall time have passed;
    returns the items done and the window's (wall, CPU) seconds."""
    start = now()
    items = 0
    while True:
        items += work.run_once()
        elapsed = since(start)
        if elapsed[0] >= seconds:
            return items, elapsed


def traced_window(work, tracer: Tracer, seconds: float):
    """Runs alternate untraced and traced until `seconds` have passed and
    both kinds ran. Returns the untraced and traced (wall, CPU) unit times
    and the self seconds of the spans inside the traced units."""
    plain, traced = [], []
    accounted = 0.0
    start = time.perf_counter()
    while not (plain and traced and time.perf_counter() - start >= seconds):
        first = len(work.times)
        on = len(plain) > len(traced)
        if on:
            tracer.install()
        step_self = tracer.step_self
        tracer.in_step = work.run_is_unit
        try:
            work.run_once()
        finally:
            tracer.in_step = False
            if on:
                tracer.uninstall()
        times = work.times[first:]
        (traced if on else plain).extend(times)
        if on:
            tracer.units += len(times)
            accounted += tracer.step_self - step_self
    return plain, traced, accounted


def gemm_gflop_s(n: int = 1024, repeats: int = 5) -> float:
    """The machine's f32 matrix-product rate on one thread, best of a few:
    the roof to read the layers' `gflop_s` against."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2 * n ** 3 / best / 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop once set-up is done")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work = WORKLOADS[args.workload](args.seed)
    work.setup()
    if tracer:
        tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"@ready {usage.ru_utime + usage.ru_stime!r}", flush=True)
    if args.probe:
        return 0

    result = {"workload": args.workload, "seed": args.seed}
    work.warm_up()
    if tracer:
        plain, traced, accounted = traced_window(work, tracer, args.seconds)
        metrics = tracer.per_unit()
        metrics["bench.trace_overhead_s"] = (statistics.median(t[1] for t in traced)
                                             - statistics.median(t[1] for t in plain))
        metrics["bench.unaccounted_s"] = (sum(t[0] for t in traced) - accounted) / len(traced)
        metrics["bench.gemm_gflop_s"] = gemm_gflop_s()
        result["trace"] = {"plain_s": plain, "traced_s": traced, "table": tracer.table()}
    else:
        items, (wall, cpu) = timed_window(work, args.seconds)
        times = work.times
        metrics = {
            "step_s": statistics.median(t[1] for t in times),
            "items_per_s": items / cpu,
            "peak_rss_mb": peak_rss_mb(),
        }
        result.update(unit_s=times, wall_step_s=statistics.median(t[0] for t in times),
                      wall_items_per_s=items / wall)

    outcomes = work.checks()
    for name, ok, detail in outcomes:
        print(f"check {'pass' if ok else 'FAIL'}  {name}: {detail}")
    result.update(correct=all(ok for _, ok, _ in outcomes), attempted=work.attempted(),
                  failed=work.failed(), metrics=metrics)
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
