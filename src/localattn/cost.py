"""Symbolic FLOP and parameter ledger for any ModelSpec.

Nothing here runs a network: the ledger walks the layer plan build_model
instantiates and prices each layer with closed-form counts, so reports are
instantaneous at any resolution.

Accounting convention "macx2-v1" (stamped on every report):
  - one multiply-accumulate = 2 FLOPs,
  - softmax, pooling, and batch norm = 5 FLOPs per element (logits for
    softmax, outputs for pooling, inputs for norm),
  - ReLU and residual additions uncounted,
  - batch size 1.
Relative-position and stem-embedding tables are priced under `positional`
parameters, separate from the transform parameters whose count is independent
of the spatial extent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .layers import (MODES, AttentionStem, AvgPool2x2, BatchNorm2d, Conv2d, GlobalAvgPool,
                     Linear, LocalAttention, MaxPool, ReLU)
from .model import Bottleneck, ModelSpec, plan

CONVENTION = "macx2-v1"


@dataclass
class CostEntry:
    name: str
    params: int
    positional_params: int
    flops: int
    output_shape: tuple


@dataclass
class CostReport:
    convention: str
    entries: list[CostEntry]

    @property
    def total_params(self) -> int:
        return sum(e.params + e.positional_params for e in self.entries)

    @property
    def total_transform_params(self) -> int:
        return sum(e.params for e in self.entries)

    @property
    def total_positional_params(self) -> int:
        return sum(e.positional_params for e in self.entries)

    @property
    def total_flops(self) -> int:
        return sum(e.flops for e in self.entries)

    def table(self) -> str:
        lines = [
            f"convention: {self.convention}",
            f"{'layer':<36s} {'params':>12s} {'positional':>11s} {'flops':>16s}  output",
            "-" * 96,
        ]
        for e in self.entries:
            shape = "x".join(str(v) for v in e.output_shape)
            lines.append(f"{e.name:<36s} {e.params:>12d} {e.positional_params:>11d} "
                         f"{e.flops:>16d}  {shape}")
        lines.append("-" * 96)
        lines.append(f"{'total':<36s} {self.total_transform_params:>12d} "
                     f"{self.total_positional_params:>11d} {self.total_flops:>16d}")
        lines.append(f"params (M): {self.total_params / 1e6:.2f}   "
                     f"flops (G): {self.total_flops / 1e9:.2f}")
        return "\n".join(lines)

    def records(self) -> list[dict]:
        return [
            {"name": e.name, "params": e.params, "positional_params": e.positional_params,
             "flops": e.flops, "output_shape": list(e.output_shape)}
            for e in self.entries
        ]


def attention_unit_costs(d_in: int, d_out: int, k: int, heads: int, mode: str):
    """(params, positional params, flops per pixel) for one attention layer."""
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    if heads < 1:
        raise ConfigurationError(f"heads must be at least 1, got {heads}")
    transforms = 2 if mode == "relative_only" else 3
    params = transforms * d_in * d_out
    positional = 2 * (2 * k - 1) * (d_out // heads) // 2 if mode in (
        "relative", "relative_only") else 0
    per_pixel = 2 * transforms * d_in * d_out
    logit_terms = 0
    if mode != "relative_only":
        logit_terms += 1                        # content q.k
    if mode in ("relative", "relative_only"):
        logit_terms += 1                        # positional q.r
    per_pixel += 2 * k * k * d_out * logit_terms
    per_pixel += 2 * k * k * d_out              # value aggregation
    per_pixel += 5 * heads * k * k              # softmax over the window
    if mode == "absolute":
        per_pixel += d_in                       # position signal addition
    return params, positional, per_pixel


# Each pricer takes the entry name, the (C, H, W) input shape and the layer's
# constructor arguments, and returns the layer's entries; the last entry's
# output shape is the layer's.

def _conv(name, shape, d_in, d_out, k, stride=1, **_):
    h, w = -(-shape[1] // stride), -(-shape[2] // stride)
    return [CostEntry(name, k * k * d_in * d_out, 0, 2 * k * k * d_in * d_out * h * w,
                      (d_out, h, w))]


def _batchnorm(name, shape, channels, **_):
    _, h, w = shape
    return [CostEntry(name, 2 * channels, 0, 5 * channels * h * w, (channels, h, w))]


def _pool(name, shape, stride):
    c, h, w = shape[0], -(-shape[1] // stride), -(-shape[2] // stride)
    return [CostEntry(name, 0, 0, 5 * c * h * w, (c, h, w))]


def _attention(name, shape, d_in, d_out, k, heads, encoding_mode, **_):
    _, h, w = shape
    params, positional, per_pixel = attention_unit_costs(d_in, d_out, k, heads, encoding_mode)
    return [CostEntry(name, params, positional, per_pixel * h * w, (d_out, h, w))]


def _stem(name, shape, d_in, d_out, mixtures, d_emb, heads, **_):
    _, h, w = shape
    window = AttentionStem.WINDOW
    params = (2 + mixtures) * d_in * d_out
    positional = 2 * window * d_emb + mixtures * d_emb
    per_pixel = 2 * (2 + 1) * d_in * d_out          # Q, K, mixed value transform
    per_pixel += 2 * window * window * d_out        # block logits
    per_pixel += 2 * window * window * d_out        # aggregation
    per_pixel += 5 * heads * window * window        # softmax
    flops = per_pixel * h * w
    # forming the 16 mixed value matrices and their mixture weights, per image
    flops += 2 * window * window * mixtures * d_out * d_in
    flops += 2 * window * window * mixtures * d_emb + 5 * window * window * mixtures
    hb, wb = h // window, w // window
    return [CostEntry(name, params, positional, flops, (d_out, h, w)),
            *_batchnorm(name + ".norm", (d_out, h, w), d_out),
            CostEntry(name + ".pool", 0, 0, 5 * d_out * hb * wb, (d_out, hb, wb))]


def _global_pool(name, shape):
    c, h, w = shape
    return [CostEntry(name, 0, 0, 5 * c * h * w, (c, 1, 1))]


def _linear(name, shape, d_in, d_out, **_):
    return [CostEntry(name, d_in * d_out + d_out, 0, 2 * d_in * d_out + d_out, (d_out,))]


def _bottleneck(name, shape, **kwargs):
    # both branches start from the block's input and end at its output shape
    return [entry for branch, chain in zip(Bottleneck.BRANCHES, Bottleneck.plan(**kwargs))
            for entry in _price_chain(f"{name}.{branch}.", chain, shape)]


_PRICERS = {
    Conv2d: _conv,
    BatchNorm2d: _batchnorm,
    ReLU: lambda name, shape: [],
    MaxPool: lambda name, shape, window, stride: _pool(name, shape, stride),
    AvgPool2x2: lambda name, shape: _pool(name, shape, 2),
    LocalAttention: _attention,
    AttentionStem: _stem,
    GlobalAvgPool: _global_pool,
    Linear: _linear,
    Bottleneck: _bottleneck,
}


def _price_chain(prefix, chain, shape) -> list[CostEntry]:
    """Entries of a chain of (name, class, kwargs) triples that starts from a
    (C, H, W) input, each layer priced at the shape its predecessor outputs."""
    entries = []
    for name, cls, kwargs in chain:
        priced = _PRICERS[cls](prefix + name, shape, **kwargs)
        entries += priced
        if priced:
            shape = priced[-1].output_shape
    return entries


def ledger(spec: ModelSpec, resolution: int | None = None) -> CostReport:
    """Per-layer cost entries for the network the spec describes, priced from
    its layer plan without building it."""
    res = resolution or spec.input_resolution
    return CostReport(CONVENTION, _price_chain("", plan(spec), (3, res, res)))


@dataclass
class ParityReport:
    """Per-pixel cost comparison between one conv layer and an attention
    extent sweep at equal channel count."""

    d: int
    conv_k: int
    conv_flops_per_pixel: int
    attention_flops_per_pixel: dict[int, int]
    best_k: int

    def ratio(self, k: int) -> float:
        return self.conv_flops_per_pixel / self.attention_flops_per_pixel[k]


def conv_flops_per_pixel(d_in: int, d_out: int, k: int) -> int:
    return 2 * k * k * d_in * d_out


def cost_parity(d: int, conv_k: int, heads: int = 8, mode: str = "relative",
                sweep=range(3, 27, 2)) -> ParityReport:
    """Find the attention extent whose per-pixel cost best matches a conv."""
    conv = conv_flops_per_pixel(d, d, conv_k)
    attn = {k: attention_unit_costs(d, d, k, heads, mode)[2] for k in sweep}
    best = min(attn, key=lambda k: abs(attn[k] - conv))
    return ParityReport(d, conv_k, conv, attn, best)
