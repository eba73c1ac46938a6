"""Residual networks assembled from the layer primitives, with a swap rule
that turns the 3x3 spatial convolution of each bottleneck into local
attention.

The transformation keeps everything else fixed: 1x1 projections stay
convolutions, downsampling groups still halve resolution (conv blocks by
striding the 3x3, attention blocks by a 2x2 stride-2 average pool after the
attention), and the stem is either the classic 7x7 stride-2 convolution with a
3x3 stride-2 max pool or the spatially-aware attention stem.

The architecture is written down once, as a plan of (name, class, kwargs)
triples: `build_model` instantiates it and `cost.ledger` prices it.

Also home to the two external formats: a plain-text `key = value` model
configuration and a binary checkpoint (magic, version, manifest, raw arrays).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import GradTape
from .config import ConfigRecord, within
from .errors import CheckpointError, ConfigurationError, ResolutionError
from .layers import (AttentionStem, AvgPool2x2, BatchNorm2d, Conv2d, GlobalAvgPool, Linear,
                     LocalAttention, MaxPool, ReLU, Sequential, MODES)

BASE_WIDTHS = (64, 128, 256, 512)
DEPTH_BLOCKS = {50: (3, 4, 6, 3), 38: (2, 3, 5, 2), 26: (1, 2, 4, 1)}
GROUP_TAGS = ("conv", "attention")
STEMS = ("conv_stem", "attention_stem")
STEM_HEADS = 4             # the attention stem's heads, whatever the blocks' `heads`
EXPANSION = 4
MAX_WIDTH = 2 ** 20        # channels; far wider than any model this code can run


@dataclass
class ModelSpec(ConfigRecord):
    """Architecture description, round-trippable through the config format.

    Canonical depths 26/38/50 imply the 4-group block counts (1,2,4,1),
    (2,3,5,2), (3,4,6,3); an explicit block_counts list (any length >= 1)
    overrides depth for reduced desk-scale models. Widths are the base group
    widths times width_multiplier, rounded to a head-compatible multiple.
    """

    depth: int = 50
    block_counts: tuple[int, ...] | None = within(None, "[1, inf)")
    width_multiplier: float = within(1.0, "(0, inf)")
    groups: tuple[str, ...] = within(("conv", "conv", "conv", "conv"), GROUP_TAGS)
    stem: str = within("conv_stem", STEMS)
    k: int = within(7, "[1, inf)")
    heads: int = within(8, f"[1, {MAX_WIDTH}]")
    encoding_mode: str = within("relative", MODES)
    num_classes: int = within(1000, "[1, inf)")
    input_resolution: int = within(224, "[1, inf)")
    small_input: bool = False
    stem_mixtures: int = within(4, "[1, inf)")
    stem_d_emb: int = within(16, "[1, inf)")
    bn_decay: float = within(0.9, "(0, 1)")

    def __post_init__(self):
        if self.block_counts is None:
            if self.depth not in DEPTH_BLOCKS:
                raise ConfigurationError(
                    f"depth must be one of {sorted(DEPTH_BLOCKS)} unless "
                    f"block_counts is given, got {self.depth}")
            self.block_counts = DEPTH_BLOCKS[self.depth]
        self.block_counts = tuple(int(c) for c in self.block_counts)
        self.groups = tuple(self.groups)
        super().__post_init__()
        if not 0 < len(self.groups) == len(self.block_counts) <= len(BASE_WIDTHS):
            raise ConfigurationError(f"need 1 to {len(BASE_WIDTHS)} groups, one tag per block "
                                     f"count, got {self.block_counts} and {self.groups}")
        if self.k % 2 == 0:
            raise ConfigurationError(f"k must be odd, got {self.k}")
        widest_base = BASE_WIDTHS[len(self.groups) - 1]
        if self.width_multiplier * widest_base > MAX_WIDTH or max(self.widths) > MAX_WIDTH:
            raise ConfigurationError(
                f"width_multiplier and heads must keep groups at most {MAX_WIDTH} channels "
                f"wide, got width_multiplier={self.width_multiplier!r} and heads={self.heads}")
        if self.stem == "attention_stem" and self.widths[0] % STEM_HEADS:
            raise ConfigurationError(f"attention_stem has {STEM_HEADS} heads, which must divide "
                                     f"the first width, got {self.widths[0]}")

    @property
    def widths(self) -> tuple[int, ...]:
        """Per-group mid widths (the 3x3/attention channel count)."""
        multiple = self.heads
        if self.encoding_mode in ("relative", "relative_only"):
            multiple = 2 * self.heads
        out = []
        for base in BASE_WIDTHS[:len(self.block_counts)]:
            w = int(round(base * self.width_multiplier / multiple)) * multiple
            out.append(max(multiple, w))
        return tuple(out)

    @property
    def downsample_factor(self) -> int:
        stem_factor = 4
        if self.stem == "conv_stem" and self.small_input:
            stem_factor = 2
        return stem_factor * 2 ** (len(self.block_counts) - 1)


MODEL_CONFIG_KEYS = frozenset(f.key for f in ModelSpec.config_fields())


def parse_config_text(text: str) -> dict[str, str]:
    """`key = value` per line; blank lines and `#` comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def read_config(path: str) -> dict[str, str]:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return parse_config_text(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 at byte offset {exc.start}") from None


def _instantiate(chain) -> list[tuple[str, object]]:
    """Build the layers of a chain of (name, class, kwargs) triples, in order."""
    return [(name, cls(**kwargs)) for name, cls, kwargs in chain]


class Bottleneck:
    """1x1 reduce, spatial op (3x3 conv or local attention), 1x1 expand, with
    batch norm after each op and a residual add.

    Downsampling blocks halve resolution on the spatial op: conv blocks stride
    the 3x3, attention blocks follow the attention with a 2x2 stride-2 average
    pool; the projection shortcut mirrors this (strided 1x1 vs pool + 1x1).
    """

    BRANCHES = ("main", "shortcut")

    def __init__(self, d_in: int, mid: int, spatial: str, downsample: bool,
                 k: int, heads: int, encoding_mode: str, bn_decay: float,
                 rng: np.random.Generator, dtype=np.float32):
        main, shortcut = self.plan(d_in, mid, spatial, downsample, k, heads,
                                   encoding_mode, bn_decay, rng, dtype)
        self.main = Sequential(_instantiate(main))
        self.shortcut = Sequential(_instantiate(shortcut)) if shortcut else None

    @staticmethod
    def plan(d_in: int, mid: int, spatial: str, downsample: bool, k: int, heads: int,
             encoding_mode: str, bn_decay: float, rng: np.random.Generator | None = None,
             dtype=np.float32):
        """The (main, shortcut) chains as (name, class, kwargs) triples in
        construction order; the shortcut is empty for an identity skip."""
        d_out = EXPANSION * mid

        def conv(channels_in, channels_out, size, stride=1):
            return dict(d_in=channels_in, d_out=channels_out, k=size, stride=stride,
                        rng=rng, dtype=dtype)

        def norm(channels):
            return dict(channels=channels, decay=bn_decay, dtype=dtype)

        main = [("reduce", Conv2d, conv(d_in, mid, 1)), ("norm1", BatchNorm2d, norm(mid)),
                ("act1", ReLU, {})]
        if spatial == "conv":
            main.append(("spatial", Conv2d, conv(mid, mid, 3, 2 if downsample else 1)))
        else:
            main.append(("spatial", LocalAttention, dict(
                d_in=mid, d_out=mid, k=k, heads=heads, encoding_mode=encoding_mode,
                rng=rng, dtype=dtype)))
            if downsample:
                main.append(("downsample", AvgPool2x2, {}))
        main += [("norm2", BatchNorm2d, norm(mid)), ("act2", ReLU, {}),
                 ("expand", Conv2d, conv(mid, d_out, 1)), ("norm3", BatchNorm2d, norm(d_out))]
        shortcut = []
        if d_in != d_out or downsample:
            if downsample and spatial != "conv":
                shortcut.append(("pool", AvgPool2x2, {}))
            stride = 2 if downsample and spatial == "conv" else 1
            shortcut += [("proj", Conv2d, conv(d_in, d_out, 1, stride)),
                         ("norm", BatchNorm2d, norm(d_out))]
        return main, shortcut

    @property
    def named_layers(self):
        return [(name, branch) for name, branch in zip(self.BRANCHES, (self.main, self.shortcut))
                if branch is not None]

    params = Sequential.params

    def forward(self, x, training: bool = False):
        h, ctx_main = self.main.forward(x, training)
        if self.shortcut is not None:
            s, ctx_short = self.shortcut.forward(x, training)
        else:
            s, ctx_short = x, None
        out = h + s
        mask = out > 0
        return out * mask, (ctx_main, ctx_short, mask)

    def backward(self, dy, ctx):
        ctx_main, ctx_short, mask = ctx
        d = dy * mask
        dx, grads_main = self.main.backward(d, ctx_main)
        grads = {f"main.{k}": v for k, v in grads_main.items()}
        if self.shortcut is not None:
            dx_short, grads_short = self.shortcut.backward(d, ctx_short)
            grads.update({f"shortcut.{k}": v for k, v in grads_short.items()})
        else:
            dx_short = d
        return dx + dx_short, grads


class Model(Sequential):
    """A built network: the chain of named top-level layers its spec
    describes. forward walks it as a Sequential and hands the records to a
    GradTape."""

    def __init__(self, spec: ModelSpec, named_layers):
        super().__init__(named_layers)
        self.spec = spec

    def forward(self, x: np.ndarray, training: bool = False):
        """(output, tape). A training forward's tape holds one record per
        top-level layer for one backward; an inference forward's holds none,
        and no context outlives its layer's turn in the walk, at any depth."""
        height, width = x.shape[2], x.shape[3]
        f = self.spec.downsample_factor
        if height % f or width % f:
            raise ResolutionError(
                f"input {height}x{width} must be divisible by the model's "
                f"total downsampling factor {f}")
        y, records = super().forward(x, training)
        return y, GradTape(records, y.shape)

    def named_modules(self):
        """(dotted name, layer) for every layer, composites before the layers
        they hold, in forward order."""
        def walk(prefix, layer):
            yield prefix, layer
            for name, sub in getattr(layer, "named_layers", ()):
                yield from walk(f"{prefix}.{name}", sub)

        for name, layer in self.named_layers:
            yield from walk(name, layer)

    def census(self) -> dict[str, int]:
        """Counts of spatial op kinds, for structural checks."""
        counts = {"attention": 0, "spatial_conv": 0, "pointwise_conv": 0,
                  "attention_stem": 0, "conv_stem": 0}
        for name, layer in self.named_modules():
            if isinstance(layer, AttentionStem):
                counts["attention_stem"] += 1
            elif isinstance(layer, LocalAttention):
                counts["attention"] += 1
            elif isinstance(layer, Conv2d):
                if name.startswith("stem."):
                    counts["conv_stem"] += 1
                else:
                    counts["spatial_conv" if layer.k > 1 else "pointwise_conv"] += 1
        return counts


def plan(spec: ModelSpec, rng: np.random.Generator | None = None, dtype=np.float32):
    """Top-level (name, class, kwargs) triples of the network the spec
    describes: stem, bottleneck blocks and head, in construction order."""
    widths = spec.widths
    if spec.stem == "conv_stem":
        layers = [
            ("stem.conv", Conv2d, dict(d_in=3, d_out=widths[0], k=7, stride=2,
                                       rng=rng, dtype=dtype)),
            ("stem.norm", BatchNorm2d, dict(channels=widths[0], decay=spec.bn_decay,
                                            dtype=dtype)),
            ("stem.act", ReLU, {}),
        ]
        if not spec.small_input:
            layers.append(("stem.pool", MaxPool, dict(window=3, stride=2)))
    else:
        layers = [("stem.attn", AttentionStem, dict(
            d_in=3, d_out=widths[0], mixtures=spec.stem_mixtures, d_emb=spec.stem_d_emb,
            heads=STEM_HEADS, bn_decay=spec.bn_decay, rng=rng, dtype=dtype))]

    d_in = widths[0]
    for g, (count, mid, tag) in enumerate(zip(spec.block_counts, widths, spec.groups)):
        for b in range(count):
            layers.append((f"group{g + 1}.block{b}", Bottleneck, dict(
                d_in=d_in, mid=mid, spatial=tag, downsample=g > 0 and b == 0, k=spec.k,
                heads=spec.heads, encoding_mode=spec.encoding_mode, bn_decay=spec.bn_decay,
                rng=rng, dtype=dtype)))
            d_in = EXPANSION * mid
    layers.append(("head.pool", GlobalAvgPool, {}))
    layers.append(("head.fc", Linear, dict(d_in=d_in, d_out=spec.num_classes,
                                           rng=rng, dtype=dtype)))
    return layers


def build_model(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> Model:
    """Instantiate the network the spec describes."""
    layers = _instantiate(plan(spec, np.random.default_rng(seed), dtype))
    return Model(spec, layers)


CHECKPOINT_MAGIC = b"LATN"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_checkpoint(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Magic, version, (name, shape, dtype) manifest, then raw little-endian
    array bytes in manifest order."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(arrays)))
        items = list(arrays.items())
        for name, arr in items:
            code = _CODE_FOR_KIND.get(np.dtype(arr.dtype))
            if code is None:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for {name}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for name, arr in items:
            code = _CODE_FOR_KIND[np.dtype(arr.dtype)]
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}; not a checkpoint file")
    offset = 4
    try:
        version, count = struct.unpack_from("<II", blob, offset)
        offset += 8
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        manifest = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            code, ndim = struct.unpack_from("<BB", blob, offset)
            offset += 2
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            if code not in _DTYPE_CODES:
                raise CheckpointError(f"unknown dtype code {code} for {name}")
            manifest.append((name, shape, _DTYPE_CODES[code]))
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint manifest: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"manifest name is not UTF-8 at byte offset {offset + exc.start}") from exc
    out = {}
    for name, shape, dtype in manifest:
        n_bytes = math.prod(shape) * dtype.itemsize             # Python ints: no wrap-around
        if offset + n_bytes > len(blob):
            raise CheckpointError(
                f"truncated checkpoint: {name} needs {n_bytes} bytes at offset {offset}")
        data = np.frombuffer(blob[offset:offset + n_bytes], dtype=dtype)
        try:        # a zero dimension lets any other dimensions through the size check
            out[name] = data.reshape(shape).copy()
        except ValueError:
            raise CheckpointError(f"{name}: numpy cannot hold shape {shape}") from None
        offset += n_bytes
    if offset != len(blob):
        raise CheckpointError(f"{len(blob) - offset} trailing bytes after arrays")
    return out


def full_state(model: Model) -> dict[str, np.ndarray]:
    """Trainable parameters plus batch-norm running statistics, live arrays."""
    return {**model.params, **batchnorm_state(model)}


def load_state_into(model: Model, arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into the model's live state by name; the
    checkpoint must hold exactly the model's entries."""
    state = full_state(model)
    missing = sorted(set(state) - set(arrays))
    if missing:
        raise CheckpointError(f"checkpoint missing entries: {missing[:5]} ...")
    unexpected = sorted(set(arrays) - set(state))
    if unexpected:
        raise CheckpointError(f"checkpoint has entries the model lacks: {unexpected[:5]} ...")
    for name, arr in state.items():
        src = arrays[name]
        if src.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {src.shape} vs model {arr.shape}")
        arr[...] = src.astype(arr.dtype)


def batchnorm_state(model: Model) -> dict[str, np.ndarray]:
    """Running statistics, saved alongside trainable parameters."""
    out = {}
    for name, layer in model.named_modules():
        if isinstance(layer, BatchNorm2d):
            out[f"{name}.running_mean"] = layer.running_mean
            out[f"{name}.running_var"] = layer.running_var
    return out
