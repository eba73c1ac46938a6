"""Dense-array substrate: softmax, tiled blocked attention, the k x k window
slot map, validity masks.

Values are plain numpy arrays, interpreted as (batch, channels, height, width)
when rank 4. Everything here is a pure function of its inputs; float64 is used
on verification paths and float32 is accepted for training paths.

block_attention works tile by tile over its flattened item axis (blocks x
heads, batch in front): a tile is as many consecutive items as keep its
logits within TILE_BYTES, so a tile's logits, softmax and GEMMs stay in L2
and no logits-sized array is allocated. Each tile's logits are written key
slot first, so the softmax reduces over axis 0, into one tile-sized scratch
that every tile reuses. The weights are not kept: block_attention returns
each query's logit max and sum of exponentials, and block_attention_vjp
rebuilds a tile's weights from them with the forward's ops in the forward's
order, so bit for bit (FlashAttention's recomputation, arXiv 2205.14135).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGroupError, DimensionError, UnsupportedExtentError

TILE_BYTES = 256 * 1024    # logits bytes per tile of block_attention


def softmax_axis(x: np.ndarray, axis: int, out: np.ndarray | None = None,
                 stats=None) -> np.ndarray:
    """Numerically stabilized softmax along `axis`, into `out` if given (which
    may be x itself). `stats`, if given, is a pair of arrays shaped like x
    reduced over `axis` with keepdims, which receive each group's max and
    sum of exponentials.

    A slot is masked out by a logit of -inf: its weight is exactly zero and
    the group's other slots sum to one. A group whose max is not finite (a
    +inf or NaN logit, or every logit -inf) raises DegenerateGroupError.
    """
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.ndim}")
    m_out, sum_out = (None, None) if stats is None else stats
    m = np.max(x, axis=axis, keepdims=True, out=m_out)
    degenerate = ~np.isfinite(m)
    if np.any(degenerate):
        raise DegenerateGroupError(
            f"softmax group has non-finite logits: a +inf or NaN logit, or every "
            f"logit -inf, in {int(degenerate.sum())} group(s)")
    e = np.subtract(x, m, out=out, dtype=np.result_type(x, 0.0))    # integer logits give float64
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True, out=sum_out)
    return e


def softmax_vjp(p: np.ndarray, dp: np.ndarray, axis: int = -1) -> np.ndarray:
    """Cotangent of the logits of p = softmax(logits, axis) given the
    cotangent dp of p: p * (dp - sum(p * dp, axis)). Overwrites and returns
    dp. Slots masked out by a -inf logit have p == 0 and get exactly zero."""
    inner = np.sum(p * dp, axis=axis, keepdims=True)
    dp -= inner
    dp *= p
    return dp


def _items(t: np.ndarray) -> np.ndarray:
    """(..., a, b) -> (L, a, b): the leading axes flattened into one item
    axis, a view when t is item-contiguous."""
    return t.reshape((-1,) + t.shape[-2:])


def _tiles(items: int, slots: int, queries: int, dtype):
    """Yield (lo, hi, a, b) for the consecutive tiles of max(1, TILE_BYTES //
    (slots * queries * itemsize)) items each, the last one possibly partial:
    a and b are (T, hi - lo, S) views of two tile-sized scratches that every
    tile reuses."""
    c = max(1, TILE_BYTES // (slots * queries * np.dtype(dtype).itemsize))
    scratch = np.empty((2, min(c, items) * slots * queries), dtype=dtype)
    for lo in range(0, items, c):
        hi = min(lo + c, items)
        a, b = scratch[:, :(hi - lo) * slots * queries].reshape(2, slots, hi - lo, queries)
        yield lo, hi, a, b


def _logits(qf, kf, bias, lo, hi, out, spare):
    """The logits K^T Q + bias of items lo:hi into out, (T, hi - lo, S);
    spare, of the same shape, is scratch the bias may be built in."""
    if kf is None:
        out[...] = 0.0
    else:
        np.matmul(np.swapaxes(kf[lo:hi], -2, -1), qf[lo:hi], out=np.moveaxis(out, 0, -2))
    if bias is not None:
        out += bias(lo, hi, spare)


def block_attention(q: np.ndarray, k: np.ndarray | None, v: np.ndarray, bias=None):
    """Attention of each block's S queries over its T keys, tile by tile.

    q is (..., d, S) and k, v are (..., d, T), the leading axes indexing
    items (blocks and heads, batch in front); they are flattened into L items
    (a copy unless the array is item-contiguous). The logits are K^T Q plus
    the bias; a k of None leaves the bias alone, and a -inf bias masks a slot
    out. `bias(lo, hi, out)` returns the bias of items lo:hi, broadcastable
    to (T, hi - lo, S); out is a free (T, hi - lo, S) scratch it may build
    the bias in. Per tile the logits are written key slot first into one
    tile-sized scratch, the bias is added, the softmax is taken over axis 0
    in place and V @ attn is written into the tile's rows of y. Returns y,
    (..., d_v, S), and the softmax statistics, a (2, L, S) array of each
    query's logit max and sum of exponentials, from which the VJP rebuilds
    the weights. With one-hot values, v = eye(T) broadcast over the items, y
    is the (..., T, S) weights themselves, exactly.
    """
    qf, vf = _items(q), _items(v)
    kf = None if k is None else _items(k)
    items, slots, queries = qf.shape[0], vf.shape[-1], qf.shape[-1]
    stats = np.empty((2, items, queries), dtype=q.dtype)
    y = np.empty((items, vf.shape[-2], queries), dtype=np.result_type(vf, q))
    for lo, hi, tile, spare in _tiles(items, slots, queries, q.dtype):
        _logits(qf, kf, bias, lo, hi, tile, spare)
        softmax_axis(tile, 0, out=tile, stats=stats[:, None, lo:hi])
        np.matmul(vf[lo:hi], np.moveaxis(tile, 0, -2), out=y[lo:hi])
    return y.reshape(v.shape[:-1] + (queries,)), stats


def block_attention_vjp(q, k, v, stats, dy, bias=None, on_tile=None):
    """Cotangents (dq, dk, dv) of block_attention given its statistics and
    bias and the cotangent dy, (..., d_v, S); dk is None when k is, and dq
    is then zero. k and v are consumed: dk and dv are written over their
    item arrays, each tile's after that tile's last read. Per tile: the
    weights are rebuilt bit for bit into one tile-sized scratch, the bias
    built in a second one, and y recomputed as V @ attn; then the logit
    cotangent in that second scratch, dv, dq and dk. `on_tile(lo, hi, g)`,
    if given, sees each tile's logit cotangent g, (T, hi - lo, S), before the
    next tile overwrites it. The softmax VJP's inner sum over key slots,
    sum_t attn * (V^T dy), is taken as sum_d dy * y (the FlashAttention
    row-sum identity). Masked slots have attn == 0 and get a zero logit
    cotangent."""
    qf, vf, dyf = _items(q), _items(v), _items(dy)
    kf = None if k is None else _items(k)
    dq = (np.zeros(qf.shape, dtype=qf.dtype) if kf is None
          else np.empty(qf.shape, dtype=np.result_type(kf, q)))
    for lo, hi, a, g in _tiles(qf.shape[0], vf.shape[-1], qf.shape[-1], qf.dtype):
        _logits(qf, kf, bias, lo, hi, a, g)
        a -= stats[0, None, lo:hi]
        np.exp(a, out=a)
        a /= stats[1, None, lo:hi]
        a_ts, g_ts = np.moveaxis(a, 0, -2), np.moveaxis(g, 0, -2)
        inner = np.einsum("...ds,...ds->...s", dyf[lo:hi], vf[lo:hi] @ a_ts)
        np.matmul(np.swapaxes(vf[lo:hi], -2, -1), dyf[lo:hi], out=g_ts)
        np.matmul(dyf[lo:hi], np.swapaxes(a_ts, -2, -1), out=vf[lo:hi])
        g -= inner
        g *= a
        if on_tile is not None:
            on_tile(lo, hi, g)
        if kf is not None:
            np.matmul(kf[lo:hi], g_ts, out=dq[lo:hi])
            np.matmul(qf[lo:hi], np.swapaxes(g_ts, -2, -1), out=kf[lo:hi])
    dk = None if kf is None else kf.reshape(k.shape)
    return dq.reshape(q.shape), dk, vf.reshape(v.shape)


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


def pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the trailing two (spatial) axes by `pad` on every side."""
    if pad == 0:
        return x
    widths = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(x, widths)


def sliding_windows(x_padded: np.ndarray, k: int) -> np.ndarray:
    """View of all k x k windows of a (..., Hp, Wp) array: shape (..., H, W, k, k)."""
    return np.lib.stride_tricks.sliding_window_view(
        x_padded, (k, k), axis=(x_padded.ndim - 2, x_padded.ndim - 1))
