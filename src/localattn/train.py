"""Desk-scale training: Nesterov momentum with linear warmup into cosine
decay, parameter EMA shadows, label-smoothed cross entropy, and horizontal
flip augmentation.

The full-scale recipe this mirrors (batch 4096, peak learning rate 1.6,
130 epochs, decay constants 0.9999) is not meaningful at desk sizes; the
schedule's shape is kept and the constants are rescaled defaults, all visible
in TrainConfig and echoed into the metrics output.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

try:
    import resource
except ImportError:          # no resource module on Windows
    resource = None

import numpy as np

from .config import ConfigRecord
from .data import DatasetSource, load_data
from .errors import DegenerateGroupError, DivergenceError, NonFiniteGradientError, ScheduleError
from .model import Model, ModelSpec, build_model, full_state, save_checkpoint


@dataclass
class Schedule:
    warmup_steps: int
    total_steps: int
    peak_lr: float

    def __post_init__(self):
        if not 0 < self.warmup_steps < self.total_steps:
            raise ScheduleError(
                f"need 0 < warmup_steps < total_steps, got "
                f"{self.warmup_steps} / {self.total_steps}")


def lr_at(s: Schedule, step: int) -> float:
    """Linear ramp to peak_lr over warmup_steps, then cosine decay to zero."""
    if not 0 <= step <= s.total_steps:
        raise ScheduleError(f"step {step} outside [0, {s.total_steps}]")
    if step < s.warmup_steps:
        return s.peak_lr * step / s.warmup_steps
    progress = (step - s.warmup_steps) / (s.total_steps - s.warmup_steps)
    return s.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """Velocity and EMA shadows per parameter, keyed like model.params."""

    velocity: dict[str, np.ndarray]
    ema: dict[str, np.ndarray]
    momentum: float = 0.9
    ema_decay: float = 0.99
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], momentum: float = 0.9,
                   ema_decay: float = 0.99) -> "OptimizerState":
        return cls(
            velocity={k: np.zeros_like(v) for k, v in params.items()},
            ema={k: v.copy() for k, v in params.items()},
            momentum=momentum,
            ema_decay=ema_decay,
        )


def nesterov_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                  state: OptimizerState, lr: float) -> None:
    """v <- mu*v - lr*g; theta <- theta + mu*v - lr*g (lookahead form).

    Updates arrays in place and advances the EMA shadows. Gradients are taken
    as finite: GradTape.backward has already rejected non-finite ones.
    """
    mu = state.momentum
    for name, p in params.items():
        g = grads[name]
        v = state.velocity[name]
        v *= mu
        v -= lr * g
        p += mu * v - lr * g
        shadow = state.ema[name]
        shadow *= state.ema_decay
        shadow += (1.0 - state.ema_decay) * p
    state.step += 1


def cross_entropy_smoothed(logits: np.ndarray, labels: np.ndarray,
                           smoothing: float = 0.1):
    """(mean loss, dloss/dlogits) with label smoothing over the classes."""
    n, k = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    target = np.full((n, k), smoothing / k, dtype=logits.dtype)
    target[np.arange(n), labels] += 1.0 - smoothing
    loss = float(-(target * log_probs).sum() / n)
    dlogits = (np.exp(log_probs) - target) / n
    return loss, dlogits


def train_step(model: Model, params: dict[str, np.ndarray], state: OptimizerState,
               images: np.ndarray, labels: np.ndarray, lr: float, smoothing: float) -> float:
    """One optimizer step on one batch; returns its loss. A non-finite loss
    is returned without a backward or an update. The logits, the tape (which
    the backward consumes) and the gradients die with the call, so nothing
    of one step is alive during the next."""
    logits, tape = model.forward(images, training=True)
    loss, dlogits = cross_entropy_smoothed(logits, labels, smoothing)
    if math.isfinite(loss):
        _, grads = tape.backward(dlogits)
        nesterov_step(params, grads, state, lr)
    return loss


def peak_rss_mb() -> float | None:
    """This process's peak resident set size in MiB, or None without the
    resource module. ru_maxrss counts KiB on Linux and bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 1024


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


@dataclass
class TrainConfig(ConfigRecord):
    epochs: int = 10
    batch_size: int = 128
    peak_lr: float = 0.05
    momentum: float = 0.9
    warmup_epochs: float = 1.0
    ema_decay: float = 0.99
    label_smoothing: float = 0.1
    augment: bool = True
    seed: int = 0

    def __post_init__(self):
        self.require_positive("batch_size")


def evaluate(model: Model, images: np.ndarray, labels: np.ndarray,
             batch_size: int = TrainConfig.batch_size) -> float:
    """Accuracy of inference forwards over `images`, `batch_size` at a
    time; the peak memory grows with the batch size."""
    hits = 0
    for start in range(0, len(images), batch_size):
        logits, _ = model.forward(images[start:start + batch_size], training=False)
        hits += int((logits.argmax(axis=1) == labels[start:start + batch_size]).sum())
    return hits / len(images)


TRAIN_CONFIG_KEYS = frozenset(f.key for f in TrainConfig.config_fields())

METRICS_HEADER = "epoch,step,lr,loss,val_acc"


@dataclass
class History:
    """Per-epoch metric rows plus where the checkpoints went."""

    rows: list[tuple[int, int, float, float, float]] = field(default_factory=list)
    checkpoint_path: str | None = None
    ema_checkpoint_path: str | None = None
    ema_val_acc: float | None = None

    @property
    def final_val_acc(self) -> float:
        return self.rows[-1][4] if self.rows else 0.0

    def csv_lines(self) -> list[str]:
        lines = [METRICS_HEADER]
        for epoch, step, lr, loss, val_acc in self.rows:
            lines.append(f"{epoch},{step},{lr:.8g},{loss:.8g},{val_acc:.8g}")
        return lines

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def _ema_state(model: Model, state: OptimizerState) -> dict[str, np.ndarray]:
    out = dict(full_state(model))
    out.update(state.ema)
    return out


def train_loop(spec: ModelSpec, source: DatasetSource, config: TrainConfig,
               out_dir: str | None = None, log=None,
               dtype=np.float32) -> History:
    """Train a fresh model; returns the metric history and writes metrics.csv
    plus final and EMA checkpoints when out_dir is given.

    Fixed seeds make the metric stream reproducible: initialization, shuffling,
    and augmentation all derive from config.seed and source.seed. A non-finite
    loss or gradient aborts with the last epoch-end state checkpointed. After
    each epoch's progress line, `log` gets a `# time epoch` line: the epoch's
    wall time with its validation pass, training images per second of it and
    the process's peak RSS so far.
    """
    (train_x, train_y), (val_x, val_y) = load_data(source)
    model = build_model(spec, seed=config.seed, dtype=dtype)
    params = model.params
    state = OptimizerState.for_params(params, config.momentum, config.ema_decay)
    steps_per_epoch = math.ceil(len(train_x) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    if total_steps < 2:
        raise ScheduleError(
            f"run is {total_steps} optimizer step(s); the warmup/decay schedule "
            f"needs at least 2")
    schedule = Schedule(
        # warmup may not swallow the whole run
        warmup_steps=min(max(1, round(config.warmup_epochs * steps_per_epoch)),
                         total_steps - 1),
        total_steps=total_steps,
        peak_lr=config.peak_lr)
    rng = np.random.default_rng(config.seed + 1)
    history = History()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        history.checkpoint_path = os.path.join(out_dir, "checkpoint_final.ckpt")
        history.ema_checkpoint_path = os.path.join(out_dir, "checkpoint_ema.ckpt")
    snapshot = {k: v.copy() for k, v in full_state(model).items()}

    def diverged(what: str) -> DivergenceError:
        message = f"{what} at step {state.step}"
        if history.checkpoint_path:
            save_checkpoint(history.checkpoint_path, snapshot)
            message += "; last finite state saved"
        return DivergenceError(message)

    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        order = rng.permutation(len(train_x))
        epoch_loss = 0.0
        for start in range(0, len(train_x), config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            xb = train_x[batch_idx]
            yb = train_y[batch_idx]
            if config.augment:
                flip = rng.random(len(xb)) < 0.5
                xb = xb.copy()
                xb[flip] = xb[flip][:, :, :, ::-1]
            try:
                loss = train_step(model, params, state, xb, yb, lr_at(schedule, state.step),
                                  config.label_smoothing)
            except DegenerateGroupError as exc:    # attention logits overflowed
                raise diverged(str(exc)) from exc
            except NonFiniteGradientError as exc:
                raise diverged(f"non-finite gradient for parameter '{exc.name}'") from exc
            if not math.isfinite(loss):
                raise diverged("non-finite loss")
            epoch_loss += loss * len(xb)
        epoch_loss /= len(train_x)
        val_acc = evaluate(model, val_x, val_y, config.batch_size)
        lr_now = lr_at(schedule, min(state.step, schedule.total_steps))
        history.rows.append((epoch + 1, state.step, lr_now, epoch_loss, val_acc))
        snapshot = {k: v.copy() for k, v in full_state(model).items()}
        if log:
            log(f"epoch {epoch + 1}/{config.epochs} step {state.step} "
                f"lr {lr_now:.5f} loss {epoch_loss:.4f} val_acc {val_acc:.4f}")
            seconds = time.perf_counter() - epoch_start
            rss = peak_rss_mb()
            log(f"# time epoch {epoch + 1} {seconds:.2f}s {len(train_x) / seconds:.1f} images/s "
                f"peak_rss_mb {'n/a' if rss is None else f'{rss:.1f}'}")

    ema_snapshot = _ema_state(model, state)
    if history.checkpoint_path:
        save_checkpoint(history.checkpoint_path, full_state(model))
        save_checkpoint(history.ema_checkpoint_path, ema_snapshot)
        history.write_csv(os.path.join(out_dir, "metrics.csv"))

    backup = {k: v.copy() for k, v in params.items()}
    for name, arr in params.items():
        arr[...] = state.ema[name]
    history.ema_val_acc = evaluate(model, val_x, val_y, config.batch_size)
    for name, arr in params.items():
        arr[...] = backup[name]
    return history
