"""Reverse-mode differentiation over recorded layer chains, plus a
finite-difference harness that certifies every manual backward pass.

There is no graph tracing: each layer already knows its own backward. A
training forward of a chain (`layers.Sequential`, and so the model) returns
one (name, layer, saved context) record per child, and `backward_chain` is
the one reverse walk over such records, for the model's tape and for every
composite's chains alike. Composite layers (residual blocks, the stem)
handle their internal branching inside their own backward.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ConsumedTapeError, DimensionError,
                     NonFiniteGradientError)


def backward_chain(cotangent: np.ndarray, records: list):
    """Walk a chain's (name, layer, context) records in reverse, consuming
    them: each record is popped and its context dropped as soon as its
    layer's backward returns, as autograd does without retain_graph, so the
    records serve one backward. Returns (input cotangent, gradients keyed
    '<name>.<param>', in walk order)."""
    if not records:
        raise ConsumedTapeError(
            "the tape holds no records: an earlier backward consumed it, or "
            "it comes from an inference forward, which records none")
    grads: dict[str, np.ndarray] = {}
    d = cotangent
    while records:
        name, layer, ctx = records.pop()
        d, layer_grads = layer.backward(d, ctx)
        del ctx
        for key, g in layer_grads.items():
            grads[f"{name}.{key}"] = g
    return d, grads


@dataclass
class GradTape:
    """One training forward of a model: its top-level (name, layer,
    context) records and its output shape."""

    entries: list[tuple[str, object, object]]
    output_shape: tuple

    def backward(self, cotangent: np.ndarray):
        """`backward_chain` over the entries, which it consumes, after a check
        of the cotangent's shape. Returns (input cotangent, gradient set); the
        gradient set maps '<layer name>.<param name>' to an array of the
        parameter's shape, with every trainable parameter present exactly
        once. A non-finite gradient raises NonFiniteGradientError naming the
        first such parameter the walk reached."""
        if cotangent.shape != self.output_shape:
            raise DimensionError(
                f"cotangent shape {cotangent.shape} does not match recorded "
                f"output shape {self.output_shape}")
        d, grads = backward_chain(cotangent, self.entries)
        for key, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(key)
        return d, grads


def _rel_err(g_a: np.ndarray, g_fd: np.ndarray) -> float:
    denom = np.abs(g_a) + np.abs(g_fd) + 1e-8
    return float(np.max(np.abs(g_a - g_fd) / denom))


def gradcheck(layer, input_shape, seed: int = 0,
              training: bool = True) -> dict[str, float]:
    """Compare the layer's analytic gradients against central finite
    differences (step 1e-5) of a random linear functional of its output.

    The layer must hold float64 parameters; all perturbations run in double
    precision. Returns, for each parameter name and for "input", max(|g_a -
    g_fd| / (|g_a| + |g_fd| + 1e-8)) over that array's entries; the caller
    judges them. The probes run on a copy, so the caller's layer (batch-norm
    running statistics included) is left as it was.
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
        step = 1e-5
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

    errors = {key: _rel_err(grads[key], central_differences(arr))
              for key, arr in layer.params.items()}
    errors["input"] = _rel_err(dx, central_differences(x))
    return errors
