"""Dense-array substrate: softmax, blocked attention, the k x k window slot
map, validity masks.

Values are plain numpy arrays, interpreted as (batch, channels, height, width)
when rank 4. Everything here is a pure function of its inputs; float64 is used
on verification paths and float32 is accepted for training paths.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGroupError, DimensionError, UnsupportedExtentError


def softmax_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stabilized softmax along `axis`.

    A slot is masked out by a logit of -inf: its weight is exactly zero and
    the group's other slots sum to one. A group whose max is not finite (a
    +inf or NaN logit, or every logit -inf) raises DegenerateGroupError.
    """
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.ndim}")
    m = np.max(x, axis=axis, keepdims=True)
    degenerate = ~np.isfinite(m)
    if np.any(degenerate):
        raise DegenerateGroupError(
            f"softmax group has non-finite logits: a +inf or NaN logit, or every "
            f"logit -inf, in {int(degenerate.sum())} group(s)")
    e = np.subtract(x, m, dtype=np.result_type(x, 0.0))    # integer logits give float64
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_vjp(p: np.ndarray, dp: np.ndarray, axis: int = -1) -> np.ndarray:
    """Cotangent of the logits of p = softmax(logits, axis) given the
    cotangent dp of p: p * (dp - sum(p * dp, axis)). Overwrites and returns
    dp. Slots masked out by a -inf logit have p == 0 and get exactly zero."""
    inner = np.sum(p * dp, axis=axis, keepdims=True)
    dp -= inner
    dp *= p
    return dp


def block_attention(q: np.ndarray, k: np.ndarray | None, v: np.ndarray, bias=None):
    """Attention of each block's S queries over its T keys, as batched GEMMs.

    q is (..., d, S) and k, v are (..., d, T), the leading axes indexing
    blocks (and heads). The logits are K^T Q plus `bias`, which broadcasts to
    them; a k of None leaves the bias alone, and a -inf bias masks a slot
    out. They are stored key slot first, (T, ..., S), so the softmax reduces
    over axis 0. Returns y = V @ attn, (..., d, S), and attn, (T, ..., S).
    """
    shape = (v.shape[-1],) + q.shape[:-2] + q.shape[-1:]
    if k is None:
        logits = np.zeros(shape, dtype=q.dtype)
    else:
        logits = np.empty(shape, dtype=q.dtype)
        np.matmul(np.swapaxes(k, -2, -1), q, out=np.moveaxis(logits, 0, -2))
    if bias is not None:
        logits += bias
    attn = softmax_axis(logits, 0)
    return v @ np.moveaxis(attn, 0, -2), attn


def block_attention_vjp(q, k, v, attn, y, dy):
    """Cotangents (dq, dk, dv, dlogits) of block_attention given y and its
    cotangent dy, both (..., d, S); dq and dk are None when k is. The softmax
    VJP's inner sum over key slots, sum_t attn * (V^T dy), is taken as
    sum_d dy * y (the FlashAttention row-sum identity). Masked slots have
    attn == 0 and get a zero logit cotangent."""
    attn_ts = np.moveaxis(attn, 0, -2)                                 # (..., T, S)
    dv = dy @ np.swapaxes(attn_ts, -2, -1)
    dlogits = np.empty_like(attn)
    dl_ts = np.moveaxis(dlogits, 0, -2)
    np.matmul(np.swapaxes(v, -2, -1), dy, out=dl_ts)
    dlogits -= np.einsum("...ds,...ds->...s", dy, y)
    dlogits *= attn
    if k is None:
        return None, None, dv, dlogits
    return k @ dl_ts, q @ np.swapaxes(dl_ts, -2, -1), dv, dlogits


def window_slices(k: int, h_out: int, w_out: int, stride: int = 1):
    """Yield (u, v, index) for each slot of a k x k window, row-major. index
    selects the (..., H', W') slice of a padded array that slot (u, v) of
    every output center reads, centers `stride` apart: the one slot map that
    convolution and pooling share."""
    for u in range(k):
        for v in range(k):
            yield u, v, (Ellipsis, slice(u, u + stride * h_out, stride),
                         slice(v, v + stride * w_out, stride))


def window_validity(height: int, width: int, k: int) -> np.ndarray:
    """Boolean (H, W, k*k) array: which slots of the k x k window centered on
    each pixel lie inside the image. Slot u*k + v holds the pixel at offset
    (u - k//2, v - k//2); only odd k has a centered window."""
    if k < 1 or k % 2 == 0:
        raise UnsupportedExtentError(f"neighborhood extent must be odd and positive, got {k}")
    inside = pad_hw(np.ones((height, width), dtype=bool), k // 2)
    return np.stack([inside[at] for _, _, at in window_slices(k, height, width)], axis=-1)


def pad_hw(x: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    """Pad the trailing two (spatial) axes by `pad` on every side."""
    if pad == 0:
        return x
    widths = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(x, widths, constant_values=value)


def sliding_windows(x_padded: np.ndarray, k: int) -> np.ndarray:
    """View of all k x k windows of a (..., Hp, Wp) array: shape (..., H, W, k, k)."""
    return np.lib.stride_tricks.sliding_window_view(
        x_padded, (k, k), axis=(x_padded.ndim - 2, x_padded.ndim - 1))
