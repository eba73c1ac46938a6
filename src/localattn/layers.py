"""Network primitives: convolution, local self-attention, the attention stem,
pooling, batch norm, and the small glue layers a residual network needs.

Every layer follows one protocol:

    y, ctx = layer.forward(x, training=False)
    dx, grads = layer.backward(dy, ctx)

`layer.params` maps parameter names to the live arrays (mutated in place by
the optimizer); `grads` uses the same keys. Forward passes are pure given the
parameters, except that batch norm updates its running statistics when
`training=True`.

Shapes are (batch, channels, height, width) throughout. Attention layers never
stride; downsampling is done by the pooling layers.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DimensionError, PaddingError, UnsupportedExtentError
from .tensorops import (block_attention, block_attention_vjp, pad_hw, softmax_axis, softmax_vjp,
                        window_slices, window_validity)

MODES = ("none", "absolute", "relative", "relative_only")


def he_normal(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


_signal_cache: dict[tuple[int, int, int], np.ndarray] = {}


def absolute_position_signal(d: int, height: int, width: int) -> np.ndarray:
    """Fixed sinusoidal position channels: the first d/2 encode the row index
    and the rest the column index, each half at geometrically spaced
    frequencies with base 10000. Returned as float64, shape (d, H, W)."""
    if d % 2:
        raise ConfigurationError(
            f"position signal splits channels into row/column halves; d={d} is odd")
    key = (d, height, width)
    if key not in _signal_cache:
        sig = np.zeros((d, height, width))
        d_row = d // 2
        for offset, dim, length, along_rows in ((0, d_row, height, True),
                                                (d_row, d - d_row, width, False)):
            pos = np.arange(length, dtype=np.float64)
            for ch in range(dim):
                angle = pos / (10000.0 ** ((ch - ch % 2) / dim))
                wave = np.sin(angle) if ch % 2 == 0 else np.cos(angle)
                if along_rows:
                    sig[offset + ch] = wave[:, None]
                else:
                    sig[offset + ch] = wave[None, :]
        _signal_cache[key] = sig
    return _signal_cache[key]


class Conv2d:
    """y_ij = sum over the k x k neighborhood of W_{i-a, j-b} x_ab, with zero
    padding and output centers at i'*stride, so H' = ceil(H/stride).

    weight shape (k, k, d_out, d_in), indexed by (i-a+half, j-b+half). Both
    passes are GEMMs on C-contiguous NCHW arrays. The zero-padded input xp is
    copied once into a slot-major column matrix of shape (n, k*k*C, H'*W'):
    row (u*k + v)*C + c holds window_slices slot (u, v) of channel c, the input at
    offset (u - half, v - half) from each output center. The weight matrix
    that multiplies it is weight[::-1, ::-1].transpose(2, 0, 1, 3) reshaped
    to (d_out, k*k*C), so C is the contiguous inner run of both. A 1x1
    stride-1 input is its own column matrix and is never copied. ctx keeps
    only the padded input; backward rebuilds the columns.
    """

    def __init__(self, d_in: int, d_out: int, k: int, stride: int = 1,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if k < 1 or k % 2 == 0:
            raise UnsupportedExtentError(f"convolution extent must be odd, got {k}")
        if stride < 1:
            raise ConfigurationError(f"stride must be positive, got {stride}")
        rng = rng or np.random.default_rng(0)
        self.d_in, self.d_out, self.k, self.stride = d_in, d_out, k, stride
        self.weight = he_normal(rng, (k, k, d_out, d_in), k * k * d_in, dtype)

    @property
    def params(self):
        return {"weight": self.weight}

    def _weight_matrix(self) -> np.ndarray:
        return self.weight[::-1, ::-1].transpose(2, 0, 1, 3).reshape(
            self.d_out, self.k * self.k * self.d_in)

    def _columns(self, xp: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
        n, c = xp.shape[:2]
        if self.k == 1 and self.stride == 1:
            return xp.reshape(n, c, h_out * w_out)
        cols = np.empty((n, self.k, self.k, c, h_out, w_out), dtype=xp.dtype)
        for u, v, at in window_slices(self.k, h_out, w_out, self.stride):
            cols[:, u, v] = xp[at]
        return cols.reshape(n, self.k * self.k * c, h_out * w_out)

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 4 or x.shape[1] != self.d_in:
            raise DimensionError(
                f"expected (N, {self.d_in}, H, W), got {x.shape}")
        n, _, height, width = x.shape
        h_out, w_out = -(-height // self.stride), -(-width // self.stride)
        xp = pad_hw(x, self.k // 2)
        y = self._weight_matrix() @ self._columns(xp, h_out, w_out)
        return y.reshape(n, self.d_out, h_out, w_out), (x.shape, xp)

    def backward(self, dy: np.ndarray, ctx):
        x_shape, xp = ctx
        n, c, height, width = x_shape
        k, half = self.k, self.k // 2
        h_out, w_out = dy.shape[2], dy.shape[3]
        dy_flat = dy.reshape(n, self.d_out, h_out * w_out)

        d_mat = np.tensordot(dy_flat, self._columns(xp, h_out, w_out), axes=([0, 2], [0, 2]))
        dw = d_mat.reshape(self.d_out, k, k, c).transpose(1, 2, 0, 3)[::-1, ::-1]
        grads = {"weight": np.ascontiguousarray(dw, dtype=self.weight.dtype)}

        d_cols = self._weight_matrix().T @ dy_flat                   # (n, k*k*C, H'*W')
        if k == 1 and self.stride == 1:
            return d_cols.reshape(x_shape), grads
        d_cols = d_cols.reshape(n, k, k, c, h_out, w_out)
        dxp = np.zeros(xp.shape, dtype=d_cols.dtype)
        for u, v, at in window_slices(k, h_out, w_out, self.stride):
            dxp[at] += d_cols[:, u, v]
        dx = dxp[:, :, half:half + height, half:half + width]
        return np.ascontiguousarray(dx), grads


class _AxisBlocks(NamedTuple):
    """Query blocks and key windows along one image axis."""
    b: int               # queries per block
    blocks: int          # ceil(side / b)
    span: int            # keys per block window
    start: np.ndarray    # (blocks,) first key of each window
    mask: np.ndarray     # (span, blocks, b): 0 where |key - query| <= k//2, else -inf
    emb_row: np.ndarray  # (blocks, b, span): offset-embedding row key - query + k - 1,
    #                      clipped into the window's rows where masked


@functools.lru_cache(maxsize=64)
def _axis_blocks(side: int, k: int) -> _AxisBlocks:
    """The block rule: a side of at most 2k is one block; a longer side is
    cut into blocks of 4 queries, the last one padded. Each block's key
    window is its queries widened by k//2 on both sides, clamped inside the
    image, so no key is padding. A padded query takes the last query's mask
    and offsets."""
    half = k // 2
    b = side if side <= 2 * k else 4
    blocks = -(-side // b)
    span = min(b + 2 * half, side)
    start = np.clip(np.arange(blocks) * b - half, 0, side - span)
    query = np.minimum(np.arange(blocks)[:, None] * b + np.arange(b), side - 1)
    offset = start[:, None] + np.arange(span)[:, None, None] - query        # (span, blocks, b)
    mask = np.where(np.abs(offset) <= half, 0.0, -np.inf)
    emb_row = np.clip(offset, -half, half).transpose(1, 2, 0) + k - 1
    for table in (start, mask, emb_row):
        table.flags.writeable = False
    return _AxisBlocks(b, blocks, span, start, mask, emb_row)


def _to_blocks(t: np.ndarray, bh: int, bw: int) -> np.ndarray:
    """(..., d, H, W) -> (..., BH, BW, d, bh*bw): the pixels of each bh x bw
    block, row-major, zero-padded where a last block overhangs the image. A
    single block is a view."""
    *lead, d, height, width = t.shape
    blocks_h, blocks_w = -(-height // bh), -(-width // bw)
    if (blocks_h * bh, blocks_w * bw) != (height, width):
        t = np.pad(t, [(0, 0)] * (t.ndim - 2)
                   + [(0, blocks_h * bh - height), (0, blocks_w * bw - width)])
    m = len(lead)
    tb = t.reshape(*lead, d, blocks_h, bh, blocks_w, bw)
    tb = tb.transpose(*range(m), m + 1, m + 3, m, m + 2, m + 4)
    return tb.reshape(*lead, blocks_h, blocks_w, d, bh * bw)


def _from_blocks(tb: np.ndarray, bh: int, bw: int, out: np.ndarray):
    """Inverse of _to_blocks into `out`, (..., d, H, W); the padding is
    dropped."""
    *lead, blocks_h, blocks_w, d, _ = tb.shape
    m = len(lead)
    t = tb.reshape(*lead, blocks_h, blocks_w, d, bh, bw)
    t = t.transpose(*range(m), m + 2, m, m + 3, m + 1, m + 4).reshape(
        *lead, d, blocks_h * bh, blocks_w * bw)
    out[...] = t[..., :out.shape[-2], :out.shape[-1]]


def _key_windows(t: np.ndarray, rows: _AxisBlocks, cols: _AxisBlocks) -> np.ndarray:
    """(..., d, H, W) -> (..., BH, BW, d, span_h*span_w): each block's key
    window, copied block by block into one item-contiguous array, so that
    block_attention flattens its leading axes into items without a copy."""
    out = np.empty(t.shape[:-3] + (rows.blocks, cols.blocks, t.shape[-3], rows.span, cols.span),
                   dtype=t.dtype)
    for i, r in enumerate(rows.start):
        for j, c in enumerate(cols.start):
            out[..., i, j, :, :, :] = t[..., r:r + rows.span, c:c + cols.span]
    return out.reshape(out.shape[:-2] + (-1,))


def _scatter_windows(tw: np.ndarray, rows: _AxisBlocks, cols: _AxisBlocks, out: np.ndarray):
    """Adjoint of _key_windows into `out`, (..., d, H, W): each block's window
    adds into the pixels it was read from."""
    t = tw.reshape(tw.shape[:-1] + (rows.span, cols.span))
    out[...] = 0.0
    for i, r in enumerate(rows.start):
        for j, c in enumerate(cols.start):
            out[..., r:r + rows.span, c:c + cols.span] += t[..., i, j, :, :, :]


# einsum subscripts of the offset terms: the row (axis 0) or column table,
# (blocks, b, span, d_head/2) along that axis, q's half in block layout, and
# the term, indexed n, heads, BH (i), BW (j), d, bh (a), bw (c) and slot t
_TABLE = ("iatd", "jctd")
_Q, _TERM = "nhijdac", "tnhijac"


class LocalAttention:
    """Multi-head attention where each pixel attends over its k x k window.

    Heads partition the output: head n is rows [n*d_head, (n+1)*d_head) of
    W_Q/W_K/W_V, d_head = d_out/heads. Encoding modes:
      none          logits are q.k only
      absolute      sinusoidal position channels added to x before Q/K/V
      relative      logits are q.k + q.r with r indexed by window offset
      relative_only logits are q.r alone (no W_K is allocated)
    Window slots outside the image get a logit of -inf, so their weight is
    exactly zero and the in-image slots sum to one; a window whose logits
    hold a +inf or NaN, or are all -inf, raises DegenerateGroupError. Output
    keeps the input's spatial size.

    Every mode runs on tensorops.block_attention. Block rule, per axis: a
    side of at most 2k is one block (the whole axis); a longer side is cut
    into blocks of 4 queries, the last one padded. A block's queries attend
    to a key window of min(4 + 2*(k//2), side) pixels per axis, clamped
    inside the image, so no key is padding. Q is copied into query blocks
    (n, heads, BH, BW, d_head, S), a view for a whole image, and K and V
    each into one item-contiguous array of key windows (..., d_head, T). The
    bias added to the logits K^T Q is, per axis, q_row . row_emb[offset]
    (relative modes) plus a mask that is 0 within k//2 of the query and
    -inf beyond; the row and column terms, (span, L, S) each for the L =
    n*heads*BH*BW items, are kept apart and added together into each tile
    of block_attention, so no logits-sized bias exists. Each term is one
    einsum of the axis's offset table, (BH, bh, span, d_head/2) for rows,
    with q's half in block layout, and so are its two gradients. ctx keeps
    the input and block_attention's softmax statistics, not the weights;
    backward projects Q, K and V and builds the two terms again, lets the
    VJP rebuild the weights tile by tile and write dK and dV over the K and
    V windows, takes the embedding gradients from each tile's per-axis sums
    of the logit cotangent and frees each full-size temporary after its
    last use. window_weights runs block_attention on the saved input again
    with one-hot values, whose output is the weights, and reads them per
    pixel and slot.
    """

    def __init__(self, d_in: int, d_out: int, k: int, heads: int,
                 encoding_mode: str = "relative",
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if encoding_mode not in MODES:
            raise ConfigurationError(
                f"encoding_mode must be one of {MODES}, got {encoding_mode!r}")
        if k < 1 or k % 2 == 0:
            raise UnsupportedExtentError(f"attention extent must be odd, got {k}")
        if d_out % heads or d_in % heads:
            raise ConfigurationError(
                f"d_in={d_in} and d_out={d_out} must be divisible by heads={heads}")
        d_head = d_out // heads
        relative = encoding_mode in ("relative", "relative_only")
        if relative and d_head % 2:
            raise ConfigurationError(
                f"relative modes need even d_head, got {d_head}")
        if encoding_mode == "absolute" and d_in % 2:
            raise ConfigurationError(
                f"absolute mode splits input channels into row/column halves; "
                f"d_in={d_in} is odd")
        rng = rng or np.random.default_rng(0)
        self.d_in, self.d_out, self.k, self.heads = d_in, d_out, k, heads
        self.d_head = d_head
        self.encoding_mode = encoding_mode
        self.W_Q = he_normal(rng, (d_out, d_in), d_in, dtype)
        self.W_K = None if encoding_mode == "relative_only" else he_normal(
            rng, (d_out, d_in), d_in, dtype)
        self.W_V = he_normal(rng, (d_out, d_in), d_in, dtype)
        if relative:
            std = 1.0 / np.sqrt(d_head // 2)
            self.row_emb = (rng.standard_normal((2 * k - 1, d_head // 2)) * std).astype(dtype)
            self.col_emb = (rng.standard_normal((2 * k - 1, d_head // 2)) * std).astype(dtype)
        else:
            self.row_emb = None
            self.col_emb = None

    @property
    def params(self):
        out = {"W_Q": self.W_Q, "W_V": self.W_V}
        if self.W_K is not None:
            out["W_K"] = self.W_K
        if self.row_emb is not None:
            out["row_emb"] = self.row_emb
            out["col_emb"] = self.col_emb
        return out

    def _transforms(self) -> list[tuple[str, np.ndarray]]:
        return [(name, w) for name, w in (("W_Q", self.W_Q), ("W_K", self.W_K),
                                          ("W_V", self.W_V)) if w is not None]

    def _blocks(self, x_in: np.ndarray):
        """The block tables of x_in's axes; Q in query blocks and K, V in key
        windows (K None in relative_only mode)."""
        n, _, height, width = x_in.shape
        rows, cols = _axis_blocks(height, self.k), _axis_blocks(width, self.k)
        w = np.concatenate([w for _, w in self._transforms()])
        t = (w @ x_in.reshape(n, self.d_in, height * width)).reshape(
            n, -1, self.heads, self.d_head, height, width)
        key = _key_windows(t[:, 1], rows, cols) if self.W_K is not None else None
        value = _key_windows(t[:, -1], rows, cols)
        return rows, cols, _to_blocks(t[:, 0], rows.b, cols.b), key, value

    def _bias(self, q: np.ndarray, rows: _AxisBlocks, cols: _AxisBlocks):
        """The logit bias as block_attention takes it: items lo:hi of the row
        term plus the column term, built in the core's spare tile `out`, (T,
        hi - lo, S). Only the two terms, each 1/span of the logits, are held
        in full."""
        row, col = (self._offset_term(q, rows, cols, axis) for axis in (0, 1))

        def bias(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
            np.add(row[:, None, lo:hi], col[None, :, lo:hi],
                   out=out.reshape(rows.span, cols.span, hi - lo, -1))
            return out
        return bias

    def _offset_term(self, q: np.ndarray, rows: _AxisBlocks, cols: _AxisBlocks, axis: int):
        """The row (axis 0) or column term of the bias, (span, L, S) for the
        L = n*heads*BH*BW items of q: q_row . row_emb[offset] plus the 0/-inf
        window mask, or the mask alone when there are no offset embeddings."""
        plan = (rows, cols)[axis]
        mask = plan.mask.reshape((plan.span, 1, 1) + ((plan.blocks, 1, plan.b, 1) if axis == 0
                                                      else (1, plan.blocks, 1, plan.b)))
        mask = mask.astype(q.dtype)
        if self.row_emb is None:
            term = np.broadcast_to(mask, (plan.span,) + q.shape[:-2] + (rows.b, cols.b))
        else:
            term = np.einsum(f"{_TABLE[axis]},{_Q}->{_TERM}", self._offset_table(axis, plan),
                             self._q_part(q, rows, cols, axis), optimize=True)
            term += mask
        return term.reshape(plan.span, -1, rows.b * cols.b)

    def _offset_table(self, axis: int, plan: _AxisBlocks) -> np.ndarray:
        """(B, b, span, d_head/2): the row (axis 0) or column embedding that
        each window slot of each query along that axis reads."""
        return (self.row_emb, self.col_emb)[axis][plan.emb_row]

    def _q_part(self, q: np.ndarray, rows: _AxisBlocks, cols: _AxisBlocks, axis: int):
        """View of the half of q's channels that meets the row (axis 0) or
        column offset embeddings, as (n, heads, BH, BW, d_head/2, bh, bw)."""
        return q.reshape(q.shape[:-2] + (2, self.d_head // 2, rows.b, cols.b))[..., axis, :, :, :]

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 4 or x.shape[1] != self.d_in:
            raise DimensionError(f"expected (N, {self.d_in}, H, W), got {x.shape}")
        n, _, height, width = x.shape
        x_in = x
        if self.encoding_mode == "absolute":
            x_in = x + absolute_position_signal(self.d_in, height, width)[None].astype(x.dtype)

        rows, cols, q, key, v = self._blocks(x_in)
        y, stats = block_attention(q, key, v, self._bias(q, rows, cols))
        out = np.empty((n, self.heads, self.d_head, height, width), dtype=y.dtype)
        _from_blocks(y, rows.b, cols.b, out)
        return out.reshape(n, self.d_out, height, width), (x_in, stats)

    def window_weights(self, ctx) -> np.ndarray:
        """The weights of a forward, rebuilt from its input, as (n, heads, H,
        W, k*k): slot u*k + v holds the pixel at offset (u - k//2, v - k//2);
        out-of-image slots are 0. block_attention returns them as its output
        for one-hot values, each output element one weight times 1 plus
        zeros, so exactly."""
        x_in, _ = ctx
        n, _, height, width = x_in.shape
        rows, cols, q, key, v = self._blocks(x_in)
        slots = v.shape[-1]
        one_hot = np.broadcast_to(np.eye(slots, dtype=v.dtype), v.shape[:-2] + (slots, slots))
        attn, _ = block_attention(q, key, one_hot, self._bias(q, rows, cols))
        index = []
        for side, plan in ((height, rows), (width, cols)):
            pixel = np.arange(side)
            block = pixel // plan.b
            # window slot of the key at offset u - k//2 (clipped where that is off the image)
            slot = pixel + np.arange(self.k)[:, None] - self.k // 2 - plan.start[block]
            index.append((np.clip(slot, 0, plan.span - 1), block, pixel % plan.b))
        (tr, bi, si), (tc, bj, sj) = index
        grid = attn.reshape((n, self.heads, rows.blocks, cols.blocks, rows.span, cols.span,
                             rows.b, cols.b))
        w = grid[:, :, bi[:, None], bj, tr[:, None, :, None], tc[None, :, None, :],
                 si[:, None], sj]                                       # (n, heads, k, k, H, W)
        w = w.transpose(0, 1, 4, 5, 2, 3).reshape(n, self.heads, height, width, -1)
        return np.where(window_validity(height, width, self.k), w, 0.0)

    def backward(self, dy: np.ndarray, ctx):
        x_in, stats = ctx
        n, _, height, width = x_in.shape
        rows, cols, q, key, v = self._blocks(x_in)
        dyb = _to_blocks(dy.reshape(n, self.heads, self.d_head, height, width), rows.b, cols.b)
        sums = on_tile = None
        if self.row_emb is not None:
            # the cotangents of the row and the column term, (span, n, heads,
            # BH, BW, bh, bw): each tile's logit cotangent summed over its
            # windows' column slots and over their row slots
            sums = [np.empty((plan.span,) + q.shape[:-2] + (rows.b, cols.b), dtype=q.dtype)
                    for plan in (rows, cols)]

            def on_tile(lo, hi, g):
                grid = g.reshape(rows.span, cols.span, hi - lo, -1)
                for axis, total in enumerate(sums):
                    items = total.reshape(total.shape[0], -1, grid.shape[-1])
                    grid.sum(axis=1 - axis, out=items[:, lo:hi])
        dq, dk, dv = block_attention_vjp(q, key, v, stats, dyb, self._bias(q, rows, cols), on_tile)
        del key, v, dyb
        grads = {} if sums is None else self._offset_grads(q, dq, sums, rows, cols)
        del q, sums

        transforms = self._transforms()
        d_t = np.empty((n, len(transforms), self.heads, self.d_head, height, width),
                       dtype=dq.dtype)
        _from_blocks(dq, rows.b, cols.b, d_t[:, 0])
        if dk is not None:
            _scatter_windows(dk, rows, cols, d_t[:, 1])
        _scatter_windows(dv, rows, cols, d_t[:, -1])
        del dq, dk, dv
        d_flat = d_t.reshape(n, -1, height * width)
        x_flat = x_in.reshape(n, self.d_in, height * width)
        d_w = np.tensordot(d_flat, x_flat, axes=([0, 2], [0, 2]))
        for i, (name, w) in enumerate(transforms):
            grads[name] = d_w[i * self.d_out:(i + 1) * self.d_out]
        dx = np.concatenate([w for _, w in transforms]).T @ d_flat
        # the absolute-mode position signal is a constant, so dx = dx_in
        return dx.reshape(x_in.shape), grads

    def _offset_grads(self, q, dq, sums, rows: _AxisBlocks, cols: _AxisBlocks):
        """The row_emb and col_emb gradients from the cotangents `sums` of the
        row and the column term; adds the terms' share of q's cotangent into
        dq."""
        grads = {}
        for axis, (plan, name) in enumerate(((rows, "row_emb"), (cols, "col_emb"))):
            table = self._offset_table(axis, plan)
            d_part = self._q_part(dq, rows, cols, axis)
            d_part += np.einsum(f"{_TABLE[axis]},{_TERM}->{_Q}", table, sums[axis], optimize=True)
            d_table = np.einsum(f"{_TERM},{_Q}->{_TABLE[axis]}", sums[axis],
                                self._q_part(q, rows, cols, axis), optimize=True)
            # masked slots have a zero logit cotangent, so the rows they were
            # clipped to receive nothing from them
            grads[name] = np.zeros_like(getattr(self, name))
            np.add.at(grads[name], plan.emb_row, d_table)
        return grads


def _channel_sums(t: np.ndarray) -> np.ndarray:
    """Per-channel sum of an (N, C, H, W) array: one (N*C, H*W) @ ones GEMV,
    then a sum over N. numpy's own reduction over axes (0, 2, 3) of a
    C-contiguous array with a small H*W is several times slower."""
    n, c, height, width = t.shape
    return (t.reshape(n * c, height * width) @ np.ones(height * width, t.dtype)).reshape(
        n, c).sum(axis=0)


def _channel_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of a*b over (N, H, W), without an a*b temporary."""
    n, c, height, width = a.shape
    rows = (n * c, height * width)
    return np.einsum("ij,ij->i", a.reshape(rows), b.reshape(rows)).reshape(n, c).sum(axis=0)


class BatchNorm2d:
    """Per-channel batch normalization over (N, H, W).

    Training mode normalizes by batch statistics and folds them into the
    running estimates as running = decay*running + (1-decay)*batch; inference
    mode normalizes by the running estimates. Per-channel sums are taken on
    the NCHW array viewed as (N*C, H*W) rows: a GEMV against ones, or a row
    dot product, then a sum over N. The variance is the mean square of the
    centred input, which is then scaled in place into the saved x_hat.
    """

    def __init__(self, channels: int, decay: float = 0.9, epsilon: float = 1e-5,
                 dtype=np.float32):
        if not 0.0 < decay < 1.0:
            raise ConfigurationError(f"decay must lie in (0, 1), got {decay}")
        self.channels = channels
        self.decay = decay
        self.epsilon = epsilon
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    @property
    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise DimensionError(f"expected (N, {self.channels}, H, W), got {x.shape}")
        shape = (1, self.channels, 1, 1)
        if training:
            m = x.shape[0] * x.shape[2] * x.shape[3]
            mean = _channel_sums(x) / m
            x_hat = x - mean.reshape(shape)
            var = _channel_dots(x_hat, x_hat) / m
            self.running_mean += (1.0 - self.decay) * (mean - self.running_mean)
            self.running_var += (1.0 - self.decay) * (var - self.running_var)
        else:
            x_hat = x - self.running_mean.reshape(shape)
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        x_hat *= inv_std.reshape(shape)
        y = x_hat * self.gamma.reshape(shape)
        y += self.beta.reshape(shape)
        return y, (x_hat, inv_std, training, x.shape)

    def backward(self, dy: np.ndarray, ctx):
        x_hat, inv_std, training, x_shape = ctx
        shape = (1, self.channels, 1, 1)
        d_gamma = _channel_dots(dy, x_hat)
        d_beta = _channel_sums(dy)
        scale = (self.gamma * inv_std).reshape(shape)
        if training:
            # gamma*inv_std * (dy - mean(dy) - x_hat*mean(dy*x_hat)), the batch
            # means taken over (N, H, W)
            m = x_shape[0] * x_shape[2] * x_shape[3]
            dx = x_hat * (-d_gamma / m).reshape(shape)
            dx += dy
            dx -= (d_beta / m).reshape(shape)
            dx *= scale
        else:
            dx = dy * scale
        return dx, {"gamma": d_gamma.astype(self.gamma.dtype),
                    "beta": d_beta.astype(self.beta.dtype)}


class Sequential:
    """Composite layer: a named chain sharing the layer protocol."""

    def __init__(self, named_layers):
        self.named_layers = list(named_layers)

    @property
    def params(self):
        out = {}
        for name, layer in self.named_layers:
            for key, arr in layer.params.items():
                out[f"{name}.{key}"] = arr
        return out

    def forward(self, x, training: bool = False):
        ctxs = []
        for _, layer in self.named_layers:
            x, ctx = layer.forward(x, training)
            ctxs.append(ctx)
        return x, ctxs

    def backward(self, dy, ctxs):
        """Consumes ctxs, as GradTape.backward consumes its tape: each child's
        context is popped and released once that child's backward returns."""
        grads = {}
        d = dy
        for name, layer in reversed(self.named_layers):
            d, layer_grads = layer.backward(d, ctxs.pop())
            for key, g in layer_grads.items():
                grads[f"{name}.{key}"] = g
        return d, grads


class AttentionStem:
    """First-stage layer: 4-head attention inside disjoint 4x4 blocks whose
    values mix M matrices by position within the block, followed by batch norm
    and a 4x4 stride-4 max pool (one output pixel per block).

    The mixture weight p(a,b,m) = softmax_m((emb_row[a] + emb_col[b]) . nu[m])
    is shared across heads and across blocks.

    The attention is tensorops.block_attention with no bias: each 4x4 block
    is one query block and its own key window. The d_in-channel input is
    copied to (n, hb, wb, d_in, 16), slot a*4 + b holding block position (a,
    b), and Q, K and V are projected from it straight into (n, hb, wb, heads,
    d_head, 16), n*hb*wb*heads items of 16 key slots by 16 query slots. Only
    the block output y goes back to NCHW, for the `norm` and `pool`
    children, which run as one Sequential. ctx is a list of the input,
    block_attention's softmax statistics (not the weights) and the
    children's contexts, which backward consumes. Backward rebuilds the
    block input, the mixture and Q, K and V from the input and the
    parameters, which an image's few input channels make cheaper than
    keeping them, lets the VJP rebuild the weights and y tile by tile and
    write dK and dV over K and V, and frees each full-size temporary after
    its last use.
    """

    WINDOW = 4

    def __init__(self, d_in: int, d_out: int, mixtures: int = 4, d_emb: int = 16,
                 heads: int = 4, bn_decay: float = 0.9,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if mixtures < 1:
            raise ConfigurationError(f"need at least one mixture matrix, got {mixtures}")
        if d_out % heads:
            raise ConfigurationError(f"d_out={d_out} must be divisible by heads={heads}")
        rng = rng or np.random.default_rng(0)
        self.d_in, self.d_out, self.heads = d_in, d_out, heads
        self.mixtures, self.d_emb = mixtures, d_emb
        self.d_head = d_out // heads
        self.W_Q = he_normal(rng, (d_out, d_in), d_in, dtype)
        self.W_K = he_normal(rng, (d_out, d_in), d_in, dtype)
        self.W_V = he_normal(rng, (mixtures, d_out, d_in), d_in, dtype)
        std = 1.0 / np.sqrt(d_emb)
        self.emb_row = (rng.standard_normal((self.WINDOW, d_emb)) * std).astype(dtype)
        self.emb_col = (rng.standard_normal((self.WINDOW, d_emb)) * std).astype(dtype)
        self.nu = (rng.standard_normal((mixtures, d_emb)) * std).astype(dtype)
        self.norm = BatchNorm2d(d_out, decay=bn_decay, dtype=dtype)
        self.pool = MaxPool(self.WINDOW, self.WINDOW)
        self.tail = Sequential([("norm", self.norm), ("pool", self.pool)])
        self.named_layers = self.tail.named_layers

    @property
    def params(self):
        return {"W_Q": self.W_Q, "W_K": self.W_K, "W_V": self.W_V, "emb_row": self.emb_row,
                "emb_col": self.emb_col, "nu": self.nu, **self.tail.params}

    def mixture_weights(self) -> np.ndarray:
        """(4, 4, M) array of p(a,b,m); rows sum to one."""
        combined = self.emb_row[:, None, :] + self.emb_col[None, :, :]     # (4, 4, E)
        logits = np.einsum("abe,me->abm", combined, self.nu, optimize=True)
        return softmax_axis(logits, -1)

    def _blocks(self, x: np.ndarray):
        """The mixture weights p, (4, 4, M); the position-mixed value
        transform w_mixed, (16, d_out, d_in); x in block layout, (n, hb, wb,
        d_in, 16); and Q, K and V projected from it, each (n, hb, wb, heads,
        d_head, 16). Every projected output costs d_in multiply-adds, so for
        an image input these are cheaper to rebuild in backward than to
        keep."""
        win = self.WINDOW
        p = self.mixture_weights().astype(x.dtype)                          # (4, 4, M)
        w_mixed = np.einsum("abm,moi->aboi", p, self.W_V, optimize=True).reshape(
            win * win, self.d_out, self.d_in)                               # (slot, out, in)
        xb = _to_blocks(x, win, win)                                        # (n, hb, wb, in, s)
        slots = xb.shape[-1]
        shape = xb.shape[:3] + (self.heads, self.d_head, slots)
        v = np.einsum("soi,nis->nos", w_mixed, xb.reshape(-1, self.d_in, slots), optimize=True)
        return (p, w_mixed, xb, (self.W_Q @ xb).reshape(shape), (self.W_K @ xb).reshape(shape),
                v.reshape(shape))

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 4 or x.shape[1] != self.d_in:
            raise DimensionError(f"expected (N, {self.d_in}, H, W), got {x.shape}")
        height, width = x.shape[2], x.shape[3]
        win = self.WINDOW
        if height % win or width % win:
            raise PaddingError(
                f"input {height}x{width} not divisible by {win}; pre-pad the image")

        yb, stats = block_attention(*self._blocks(x)[-3:])
        attended = np.empty((x.shape[0], self.d_out, height, width), dtype=yb.dtype)
        _from_blocks(yb.reshape(yb.shape[:3] + (self.d_out, -1)), win, win, attended)
        del yb
        y, tail_ctx = self.tail.forward(attended, training)
        return y, [x, stats, *tail_ctx]

    def backward(self, dy: np.ndarray, ctx):
        # the tail pops its children's contexts off the end of ctx, so the
        # norm's x_hat is freed before the attention VJP
        d_attended, grads = self.tail.backward(dy, ctx)
        x, stats = ctx
        dyb = _to_blocks(d_attended, self.WINDOW, self.WINDOW)
        del d_attended
        p, w_mixed, xb, q, key, v = self._blocks(x)
        dq, dk, dv = block_attention_vjp(q, key, v, stats, dyb.reshape(q.shape))
        del q, key, v, dyb

        slots = xb.shape[-1]
        x_flat = xb.reshape(-1, self.d_in, slots)                          # (blocks, in, s)
        dq, dk, dv = (t.reshape(-1, self.d_out, slots) for t in (dq, dk, dv))
        x_t = np.swapaxes(x_flat, -2, -1)
        grads["W_Q"] = (dq @ x_t).sum(axis=0)
        grads["W_K"] = (dk @ x_t).sum(axis=0)
        dxb = self.W_Q.T @ dq + self.W_K.T @ dk
        del dq, dk
        dxb += np.einsum("soi,nos->nis", w_mixed, dv, optimize=True)
        d_wmixed = np.einsum("nos,nis->soi", dv, x_flat, optimize=True).reshape(
            self.WINDOW, self.WINDOW, self.d_out, self.d_in)
        del dv
        dx = np.empty(x.shape, dtype=dxb.dtype)
        _from_blocks(dxb.reshape(xb.shape), self.WINDOW, self.WINDOW, dx)

        grads["W_V"] = np.einsum("abm,aboi->moi", p, d_wmixed, optimize=True)
        dp = np.einsum("aboi,moi->abm", d_wmixed, self.W_V, optimize=True)
        dp_logits = softmax_vjp(p, dp)                                      # (4, 4, M)
        grads["nu"] = np.einsum(
            "abm,abe->me", dp_logits,
            self.emb_row[:, None, :] + self.emb_col[None, :, :], optimize=True)
        d_combined = np.einsum("abm,me->abe", dp_logits, self.nu, optimize=True)
        grads["emb_row"] = d_combined.sum(axis=1)
        grads["emb_col"] = d_combined.sum(axis=0)
        return dx, grads


class MaxPool:
    """Windowed max with ceil(H/stride) output. Out-of-image slots are padded
    with -inf, so they never beat an in-image value and an all -inf window
    gives -inf. Ties route gradient to the first maximal in-image slot,
    keeping backward deterministic."""

    def __init__(self, window: int, stride: int):
        self.window, self.stride = window, stride
        self.params = {}

    def forward(self, x: np.ndarray, training: bool = False):
        height, width = x.shape[2], x.shape[3]
        w, s = self.window, self.stride
        h_out, w_out = -(-height // s), -(-width // s)
        span_h, span_w = (h_out - 1) * s + w, (w_out - 1) * s + w    # pixels the windows cover
        # half the overhang above/left, the rest (never less) below/right
        pad_h, pad_w = max(0, span_h - height) // 2, max(0, span_w - width) // 2
        below, right = max(0, span_h - pad_h - height), max(0, span_w - pad_w - width)
        xp = x
        if below or right:
            xp = np.pad(x, [(0, 0), (0, 0), (pad_h, below), (pad_w, right)],
                        constant_values=-np.inf)
        stack = np.stack([xp[at] for _, _, at in window_slices(w, h_out, w_out, s)])
        arg = np.argmax(stack, axis=0)
        y = np.take_along_axis(stack, arg[None], axis=0)[0]
        return y, (x.shape, arg, pad_h, pad_w)

    def backward(self, dy: np.ndarray, ctx):
        x_shape, arg, pad_h, pad_w = ctx
        n, c, height, width = x_shape
        w, s = self.window, self.stride
        h_out, w_out = dy.shape[2], dy.shape[3]
        dx = np.zeros(x_shape, dtype=dy.dtype)
        out_i, out_j = np.meshgrid(np.arange(h_out), np.arange(w_out), indexing="ij")
        # only a window whose in-image slots are all -inf can pick a padding
        # slot: its slot 0, the top-left corner; clipping moves that to the
        # window's first in-image slot
        rows = np.clip(out_i * s - pad_h + arg // w, 0, height - 1)
        cols = np.clip(out_j * s - pad_w + arg % w, 0, width - 1)
        plane = np.arange(n * c).reshape(n, c, 1, 1)
        np.add.at(dx.ravel(), ((plane * height + rows) * width + cols).ravel(), dy.ravel())
        return dx, {}


class AvgPool2x2:
    """2x2 stride-2 average pooling; odd borders average the in-image elements
    only, so a constant image stays constant. The window sums are four strided
    adds in tap order (0, 0), (0, 1), (1, 0), (1, 1); only an odd H or W is
    zero-padded first."""

    def __init__(self):
        self.params = {}

    def forward(self, x: np.ndarray, training: bool = False):
        n, c, height, width = x.shape
        h_out = -(-height // 2)
        w_out = -(-width // 2)
        xp = x
        if height % 2 or width % 2:
            xp = np.zeros((n, c, 2 * h_out, 2 * w_out), dtype=x.dtype)
            xp[:, :, :height, :width] = x
        y = xp[:, :, 0::2, 0::2] + xp[:, :, 0::2, 1::2]
        y += xp[:, :, 1::2, 0::2]
        y += xp[:, :, 1::2, 1::2]
        rows = np.minimum(2, height - 2 * np.arange(h_out))
        cols = np.minimum(2, width - 2 * np.arange(w_out))
        count = (rows[:, None] * cols[None, :]).astype(x.dtype)
        y /= count
        return y, (x.shape, count)

    def backward(self, dy: np.ndarray, ctx):
        (_, _, height, width), count = ctx
        spread = np.repeat(np.repeat(dy / count, 2, axis=2), 2, axis=3)
        return spread[:, :, :height, :width], {}


class ReLU:
    def __init__(self):
        self.params = {}

    def forward(self, x: np.ndarray, training: bool = False):
        return np.maximum(x, 0), (x > 0)

    def backward(self, dy: np.ndarray, ctx):
        return dy * ctx, {}


class GlobalAvgPool:
    """(N, C, H, W) -> (N, C) spatial mean."""

    def __init__(self):
        self.params = {}

    def forward(self, x: np.ndarray, training: bool = False):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy: np.ndarray, ctx):
        n, c, height, width = ctx
        dx = np.broadcast_to(dy[:, :, None, None] / (height * width),
                             (n, c, height, width)).copy()
        return dx, {}


class Linear:
    """y = W x + b on (N, d_in) feature rows."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.d_in, self.d_out = d_in, d_out
        self.weight = he_normal(rng, (d_out, d_in), d_in, dtype)
        self.bias = np.zeros(d_out, dtype=dtype)

    @property
    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise DimensionError(f"expected (N, {self.d_in}), got {x.shape}")
        return x @ self.weight.T + self.bias, x

    def backward(self, dy: np.ndarray, ctx):
        x = ctx
        return dy @ self.weight, {"weight": dy.T @ x, "bias": dy.sum(axis=0)}
