"""Dataset handling: CIFAR-10 binary ingestion and synthetic fallbacks.

CIFAR-10 binary files hold 3073-byte records: one label byte in [0, 9]
followed by 3072 pixel bytes (1024 red, 1024 green, 1024 blue, row-major
32x32). Loading is bit-exact with alignment checks; images are scaled to
[0, 1] and standardized per channel with statistics from the training portion.

Two synthetic generators stand in when no CIFAR files are present:

  - "separable": class is a per-image brightness shift, so a linear probe
    reaches 100%; a floor check that training works at all.
  - "blocks": each image is two solid 4x4 color blocks on a black background,
    side by side on one row; the color pair picks one of five families and the
    left-right order picks the class within the family (odd classes are the
    180-degree rotation of even ones). Because rotation pairs the two orders
    exactly, a network whose only spatial signal is the stem's within-block
    mixing assigns both orders identical logits, while relative-position
    attention separates them; the task isolates what the positional
    encoding contributes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigRecord
from .errors import ConfigurationError, IngestionError

RECORD_BYTES = 3073
IMAGE_SHAPE = (3, 32, 32)


@dataclass
class DatasetSource(ConfigRecord):
    """Where training data comes from.

    kind "cifar10_binary": `path` is a .bin file or a directory of
    data_batch_*.bin files. kind "synthetic": `task` picks the generator and
    `size` the number of images. `limit` caps the training subset;
    `val_fraction` of the (post-limit) training size is held out from records
    beyond the subset. Config keys carry a `data_` prefix.
    """

    KEY_PREFIX = "data_"

    kind: str = "synthetic"
    path: str | None = None
    task: str = "blocks"
    size: int = 6000
    seed: int = 0
    limit: int | None = None
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.kind not in ("cifar10_binary", "synthetic"):
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigurationError(f"val_fraction must be in (0,1), got {self.val_fraction}")
        self.require_positive("size", "limit")


DATA_CONFIG_KEYS = frozenset(f.key for f in DatasetSource.config_fields())


def read_cifar10_file(path: str):
    """Decode one binary file into (images uint8 (N,3,32,32), labels (N,))."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % RECORD_BYTES:
        offset = (len(blob) // RECORD_BYTES) * RECORD_BYTES
        raise IngestionError(
            f"{path}: size {len(blob)} is not a multiple of {RECORD_BYTES}", offset=offset)
    count = len(blob) // RECORD_BYTES
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(count, RECORD_BYTES)
    labels = raw[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise IngestionError(
            f"{path}: label byte {labels[bad[0]]} outside [0, 9]",
            offset=int(bad[0]) * RECORD_BYTES)
    images = raw[:, 1:].reshape(count, *IMAGE_SHAPE)
    return images, labels


def _split(x: np.ndarray, y: np.ndarray, source: DatasetSource, scale: float = 1.0):
    """((train images, train labels), (val images, val labels)) from images in
    source order: the first `limit` (default: all but the validation share)
    train and the next `val_fraction * limit` validate, both as float32
    x / scale standardized per channel with the training portion's
    statistics."""
    limit = source.limit or int(len(x) / (1 + source.val_fraction))
    n_val = max(1, round(limit * source.val_fraction))
    if limit + n_val > len(x):
        limit = int(len(x) / (1 + source.val_fraction))
        n_val = len(x) - limit
    train_x, val_x = (np.divide(part, scale, dtype=np.float32)
                      for part in (x[:limit], x[limit:limit + n_val]))
    mean = train_x.mean(axis=(0, 2, 3), keepdims=True)
    std = train_x.std(axis=(0, 2, 3), keepdims=True) + 1e-7
    for part in (train_x, val_x):
        part -= mean
        part /= std
    return (train_x, y[:limit]), (val_x, y[limit:limit + n_val])


def load_cifar10(source: DatasetSource):
    """((train images, train labels), (val images, val labels)), float32.

    Records from all files are pooled, shuffled by the source seed, and split:
    the first `limit` (default: all but the validation share) train, the next
    `val_fraction * limit` validate.
    """
    path = source.path or "data/cifar-10-batches-bin"
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path)
            if f.startswith("data_batch") and f.endswith(".bin"))
        if not files:
            raise IngestionError(f"no data_batch_*.bin files under {path}", offset=0)
    else:
        files = [path]
    images_parts, labels_parts = [], []
    for f in files:
        imgs, labs = read_cifar10_file(f)
        images_parts.append(imgs)
        labels_parts.append(labs)
    images = np.concatenate(images_parts)
    labels = np.concatenate(labels_parts)

    order = np.random.default_rng(source.seed).permutation(len(images))
    return _split(images[order], labels[order], source, scale=255.0)


FAMILY_COLORS = (
    ((1.0, 0.1, 0.1), (0.1, 0.1, 1.0)),
    ((0.1, 1.0, 0.1), (1.0, 1.0, 0.1)),
    ((0.1, 1.0, 1.0), (1.0, 0.1, 1.0)),
    ((1.0, 1.0, 1.0), (0.4, 0.4, 0.4)),
    ((1.0, 0.6, 0.1), (0.5, 0.1, 1.0)),
)


def synthetic_blocks(n: int, seed: int = 0, size: int = 32):
    """n images of the paired-blob ordering task; labels in [0, 9]."""
    rng = np.random.default_rng(seed)
    cells = size // 4
    x = np.zeros((n, 3, size, size), dtype=np.float32)
    y = rng.integers(0, 10, size=n)
    for idx in range(n):
        family, order = int(y[idx]) // 2, int(y[idx]) % 2
        color_a, color_b = FAMILY_COLORS[family]
        row = int(rng.integers(0, cells))
        gap = int(rng.integers(1, 3))
        col = int(rng.integers(0, cells - gap))
        amp = float(rng.uniform(0.6, 1.0))
        for color, cc in ((color_a, col), (color_b, col + gap)):
            for ch in range(3):
                x[idx, ch, row * 4:(row + 1) * 4, cc * 4:(cc + 1) * 4] = amp * color[ch]
        if order == 1:
            x[idx] = x[idx, :, ::-1, ::-1]
    return x, y


def synthetic_separable(n: int, seed: int = 0, size: int = 32):
    """n images of a 2-class brightness task a linear probe solves exactly."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    shift = np.where(y == 1, 0.5, -0.5).astype(np.float32)
    x = rng.normal(0.0, 0.2, size=(n, 3, size, size)).astype(np.float32)
    x += shift[:, None, None, None]
    return x, y


def load_synthetic(source: DatasetSource):
    maker = {"blocks": synthetic_blocks, "separable": synthetic_separable}.get(source.task)
    if maker is None:
        raise ConfigurationError(f"unknown synthetic task {source.task!r}")
    return _split(*maker(source.size, seed=source.seed), source)


def load_data(source: DatasetSource):
    if source.kind == "cifar10_binary":
        return load_cifar10(source)
    return load_synthetic(source)
