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
that every tile reuses; a bias comes as a row and a column term, summed per
tile in a second scratch. The tile is never divided by the softmax sum: the
output V @ exp, d_v rows per query, is divided instead (FlashAttention's
deferred normalization, arXiv 2205.14135). The weights are not kept:
block_attention returns each query's logit max and sum of exponentials, and
block_attention_vjp rebuilds a tile's exponentials from them with the
forward's ops in the forward's order, so bit for bit (FlashAttention's
recomputation).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGroupError, DimensionError, UnsupportedExtentError

TILE_BYTES = 256 * 1024    # logits bytes per tile of block_attention


def _exp_stats(x: np.ndarray, axis: int, out: np.ndarray | None = None, stats=None):
    """(exp(x - max), sum of that) along `axis`, the exponentials into `out`
    if given (which may be x itself). `stats`, if given, is a pair of arrays
    shaped like x reduced over `axis` with keepdims, which receive each
    group's max and sum. A -inf logit gets an exponential of exactly zero; a
    group whose max is not finite (a +inf or NaN logit, or every logit -inf)
    raises DegenerateGroupError."""
    m_out, sum_out = (None, None) if stats is None else stats
    m = np.max(x, axis=axis, keepdims=True, out=m_out)
    degenerate = ~np.isfinite(m)
    if np.any(degenerate):
        raise DegenerateGroupError(
            f"softmax group has non-finite logits: a +inf or NaN logit, or every "
            f"logit -inf, in {int(degenerate.sum())} group(s)")
    e = np.subtract(x, m, out=out, dtype=np.result_type(x, 0.0))    # integer logits give float64
    np.exp(e, out=e)
    return e, np.sum(e, axis=axis, keepdims=True, out=sum_out)


def softmax_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stabilized softmax along `axis`. A slot masked out by a
    -inf logit gets a weight of exactly zero and the group's other slots sum
    to one; a degenerate group raises DegenerateGroupError (_exp_stats)."""
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.ndim}")
    e, total = _exp_stats(x, axis)
    e /= total
    return e


def softmax_vjp(p: np.ndarray, dp: np.ndarray, axis: int = -1) -> np.ndarray:
    """Cotangent of the logits of p = softmax(logits, axis) given the
    cotangent dp of p: p * (dp - sum(p * dp, axis)). Overwrites and returns
    dp. Slots masked out by a -inf logit have p == 0 and get exactly zero."""
    inner = np.sum(p * dp, axis=axis, keepdims=True)
    dp -= inner
    dp *= p
    return dp


def _items(t: np.ndarray, rank: int = 2) -> np.ndarray:
    """(..., *m) -> (L, *m) for the trailing `rank` axes m: the leading axes
    flattened into one item axis, a view when t is item-contiguous."""
    return t.reshape((-1,) + t.shape[-rank:])


def _grouped(t: np.ndarray, groups: int) -> np.ndarray:
    """(T, L, S) -> (L, groups, T, S/groups) view: each item's queries cut
    into consecutive groups."""
    return np.moveaxis(t.reshape(t.shape[:2] + (groups, -1)), 0, -2)


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


def _logits(qf, kf, terms, lo, hi, out, spare):
    """The logits K^T Q + row (+) col of items lo:hi into out, (T, hi - lo,
    S); spare, of the same shape, is scratch the terms are summed in."""
    if kf is None:
        out[...] = 0.0
    else:
        np.matmul(np.swapaxes(kf[lo:hi], -2, -1), qf[lo:hi], out=np.moveaxis(out, 0, -2))
    if terms is not None:
        row, col = terms
        np.add(row[:, None, lo:hi], col[None, :, lo:hi],
               out=spare.reshape(len(row), len(col), hi - lo, -1))
        out += spare


def block_attention(q: np.ndarray, k: np.ndarray | None, v: np.ndarray, terms=None):
    """Attention of each block's S queries over its T keys, tile by tile.

    q is (..., d, S), k is (..., d, T) and v is (..., G, d_v, T): G value
    groups over one key set, group g read by queries g*S/G to (g+1)*S/G, so
    the logit GEMMs run once per item and the value GEMMs once per group.
    The leading axes index items (blocks and heads, batch in front); they are
    flattened into L items (a copy unless the array is item-contiguous). The
    logits are K^T Q plus, if given, terms = (row, col), (T_h, L, S) and
    (T_w, L, S) with T = T_h*T_w: key slot t_h*T_w + t_w adds row[t_h] +
    col[t_w]. A k of None leaves the terms alone, and a -inf in a term masks
    its slots out, so no logits-sized bias exists. Per tile the
    logits are written key slot first into one tile-sized scratch, the
    tile's row (+) col is built in a second one and added, exp(logit - max)
    is taken over axis 0 in place, each group's V @ exp is written into the
    tile's rows of y, and y is divided by each query's sum of exponentials:
    the tile itself is never divided. Returns y, (..., G, d_v, S/G), and the
    softmax statistics, a (2, L, S) array of each query's logit max and sum
    of exponentials, from which the VJP rebuilds the weights. With one-hot
    values, v = eye(T) broadcast over the items, y is the (..., 1, T, S)
    weights themselves, exactly.
    """
    qf, vf = _items(q), _items(v, 3)
    kf = None if k is None else _items(k)
    items, groups, slots, queries = qf.shape[0], vf.shape[1], vf.shape[-1], qf.shape[-1]
    if queries % groups:
        raise DimensionError(f"{queries} queries do not split into {groups} value groups")
    stats = np.empty((2, items, queries), dtype=q.dtype)
    y = np.empty(vf.shape[:-1] + (queries // groups,), dtype=np.result_type(vf, q))
    for lo, hi, tile, spare in _tiles(items, slots, queries, q.dtype):
        _logits(qf, kf, terms, lo, hi, tile, spare)
        _exp_stats(tile, 0, tile, stats[:, None, lo:hi])
        np.matmul(vf[lo:hi], _grouped(tile, groups), out=y[lo:hi])
        y[lo:hi] /= _grouped(stats[1, None, lo:hi], groups)
    return y.reshape(v.shape[:-1] + (queries // groups,)), stats


def block_attention_vjp(q, k, v, stats, dy, terms=None, d_terms=None):
    """Cotangents (dq, dk, dv) of block_attention given its statistics and
    terms and the cotangent dy, (..., G, d_v, S/G); dk is None when k is, and
    dq is then zero. k and v are consumed: dk and dv are written over their
    item arrays, each tile's after that tile's last read. Per tile, exp(logit
    - max) is rebuilt bit for bit into one tile-sized scratch, with the
    terms summed in a second one, which then takes the logit cotangent g.
    The tile is not divided: with dys = dy / sum and attn = exp / sum, dv =
    dys @ exp^T and g = exp * (V^T dys - inner / sum), the softmax VJP's
    inner sum over key slots, sum_t attn * (V^T dy), being sum_t exp * (V^T
    dys), one reduction over the tile. Masked slots have exp == 0 and get a
    zero g. d_terms, if given, is a pair of arrays shaped like the terms
    that receive the terms' cotangents, g summed over the column slots and
    over the row slots, like numpy's `out=`."""
    qf, vf, dyf = _items(q), _items(v, 3), _items(dy, 3)
    kf = None if k is None else _items(k)
    groups = vf.shape[1]
    dq = (np.zeros(qf.shape, dtype=qf.dtype) if kf is None
          else np.empty(qf.shape, dtype=np.result_type(kf, q)))
    for lo, hi, e, g in _tiles(qf.shape[0], vf.shape[-1], qf.shape[-1], qf.dtype):
        _logits(qf, kf, terms, lo, hi, e, g)
        e -= stats[0, None, lo:hi]
        np.exp(e, out=e)
        dys = dyf[lo:hi] / _grouped(stats[1, None, lo:hi], groups)
        np.matmul(np.swapaxes(vf[lo:hi], -2, -1), dys, out=_grouped(g, groups))
        np.matmul(dys, np.swapaxes(_grouped(e, groups), -2, -1), out=vf[lo:hi])
        inner = np.einsum("tns,tns->ns", e, g)
        inner /= stats[1, lo:hi]
        g -= inner
        g *= e
        if d_terms is not None:
            grid = g.reshape(len(d_terms[0]), len(d_terms[1]), hi - lo, -1)
            for axis, d_term in enumerate(d_terms):
                grid.sum(axis=1 - axis, out=d_term[:, lo:hi])
        if kf is not None:
            g_ts = np.moveaxis(g, 0, -2)
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


def check_odd_extent(k: int, kind: str) -> None:
    """UnsupportedExtentError unless k is positive and odd, so windows center."""
    if k < 1 or k % 2 == 0:
        raise UnsupportedExtentError(f"{kind} extent must be odd, got {k}")


def window_validity(height: int, width: int, k: int) -> np.ndarray:
    """Boolean (H, W, k*k) array: which slots of the k x k window centered on
    each pixel lie inside the image. Slot u*k + v holds the pixel at offset
    (u - k//2, v - k//2)."""
    check_odd_extent(k, "neighborhood")
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
