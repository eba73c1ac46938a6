"""Reverse-mode differentiation over recorded layer chains, plus a
finite-difference harness that certifies every manual backward pass.

There is no graph tracing: each layer already knows its own backward, so a
forward pass just records (name, layer, saved context) onto a GradTape and
backward pops the records in reverse, freeing each context once its layer's
backward has run. Composite layers (residual blocks, the stem) handle their
internal branching inside their own backward.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, ConsumedTapeError, DimensionError,
                     NonFiniteGradientError)


@dataclass
class GradTape:
    """Ordered record of one forward pass: (layer name, layer, context)."""

    entries: list[tuple[str, object, object]] = field(default_factory=list)
    output_shape: tuple | None = None

    def record(self, name: str, layer, ctx) -> None:
        self.entries.append((name, layer, ctx))

    def backward(self, cotangent: np.ndarray):
        """Walk the tape in reverse, consuming it: each record is popped, so
        its context is released before the next layer's backward runs, as
        autograd does without retain_graph; a tape serves one backward.
        Returns (input cotangent, gradient set); the gradient set maps
        '<layer name>.<param name>' to an array of the parameter's shape, with
        every trainable parameter present exactly once.
        """
        if not self.entries:
            raise ConsumedTapeError(
                "the tape holds no records: an earlier backward consumed it, or "
                "it comes from an inference forward, which records none")
        if self.output_shape is not None and cotangent.shape != self.output_shape:
            raise DimensionError(
                f"cotangent shape {cotangent.shape} does not match recorded "
                f"output shape {self.output_shape}")
        grads: dict[str, np.ndarray] = {}
        d = cotangent
        while self.entries:
            name, layer, ctx = self.entries.pop()
            d, layer_grads = layer.backward(d, ctx)
            for key, g in layer_grads.items():
                if not np.all(np.isfinite(g)):
                    raise NonFiniteGradientError(f"{name}.{key}")
                grads[f"{name}.{key}"] = g
        return d, grads


@dataclass
class CheckReport:
    """Outcome of one finite-difference comparison."""

    name: str
    tolerance: float
    max_rel_error: float
    per_entry: dict[str, float]
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:<40s} max_rel_err {self.max_rel_error:.3e}  {status}"


def _rel_err(g_a: np.ndarray, g_fd: np.ndarray) -> float:
    denom = np.abs(g_a) + np.abs(g_fd) + 1e-8
    return float(np.max(np.abs(g_a - g_fd) / denom))


def gradcheck(layer, input_shape, tolerance: float = 1e-4,
              seed: int = 0, step: float = 1e-5, training: bool = True,
              name: str | None = None) -> CheckReport:
    """Compare the layer's analytic gradients against central finite
    differences of a random linear functional of its output.

    The layer must hold float64 parameters; all perturbations run in double
    precision. The reported figure is max(|g_a - g_fd| / (|g_a| + |g_fd| +
    1e-8)) over every parameter entry and every input entry. The probes run
    on a copy, so the caller's layer (batch-norm running statistics
    included) is left as it was.
    """
    layer = copy.deepcopy(layer)
    for key, arr in layer.params.items():
        if arr.dtype != np.float64:
            raise ConfigurationError(
                f"gradcheck needs float64 parameters; {key} is {arr.dtype}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(input_shape)

    y, ctx = layer.forward(x, training=training)
    probe = rng.standard_normal(y.shape)

    def loss(out: np.ndarray) -> float:
        return float(np.sum(probe * out))

    dx, grads = layer.backward(probe, ctx)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(key)
    if not np.all(np.isfinite(dx)):
        raise NonFiniteGradientError("input")

    def central_differences(arr: np.ndarray) -> np.ndarray:
        """d loss / d arr, one entry at a time; arr is perturbed in place."""
        fd = np.zeros_like(arr)
        flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss(layer.forward(x, training=training)[0])
            flat[idx] = orig - step
            down = loss(layer.forward(x, training=training)[0])
            flat[idx] = orig
            fd_flat[idx] = (up - down) / (2 * step)
        return fd

    per_entry = {key: _rel_err(grads[key], central_differences(arr))
                 for key, arr in layer.params.items()}
    per_entry["input"] = _rel_err(dx, central_differences(x))

    worst = max(per_entry.values())
    return CheckReport(
        name=name or type(layer).__name__,
        tolerance=tolerance,
        max_rel_error=worst,
        per_entry=per_entry,
        passed=worst <= tolerance,
    )
