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

import numpy as np

from .errors import ConfigurationError, DimensionError, PaddingError, UnsupportedExtentError
from .tensorops import pad_hw, softmax_axis, softmax_vjp, window_slices, window_validity

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


class LocalAttention:
    """Multi-head attention where each pixel attends over its k x k window.

    Heads partition the output: head n is rows [n*d_head, (n+1)*d_head) of
    W_Q/W_K/W_V, d_head = d_out/heads. Encoding modes:
      none          logits are q.k only
      absolute      sinusoidal position channels added to x before Q/K/V
      relative      logits are q.k + q.r with r indexed by window offset
      relative_only logits are q.r alone (no W_K is allocated)
    Out-of-image window slots (window_validity) get a logit of -inf, so their
    softmax weight is exactly zero and the in-image slots sum to one; a window
    whose logits hold a +inf or NaN, or are all -inf, raises
    DegenerateGroupError. Output keeps the input's spatial size.

    No window of K or V is ever copied out. Q, K and V are C-contiguous
    (n, heads, d_head, H, W) arrays; K and V are zero-padded once, and slot
    u*k + v of every pixel's window is the window_slices slice [..., u:u+H,
    v:v+W] of the padded array. Logits and weights are laid out (k*k, n, heads, H, W)
    so the softmax reduces over the leading axis; ctx[4] views the weights as
    (n, heads, H, W, k*k).
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

    def _project(self, w: np.ndarray, x_in: np.ndarray) -> np.ndarray:
        # (d_out, d_in) @ (n, d_in, H*W) is C-contiguous; einsum would return
        # channels-last strides, which make every shifted slice read slow
        n, _, height, width = x_in.shape
        return (w @ x_in.reshape(n, self.d_in, height * width)).reshape(
            n, self.heads, self.d_head, height, width)

    def _offset_embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        # slot (u, v) reads row_emb[(u-half) + k-1] and col_emb[(v-half) + k-1],
        # which simplifies to index u+half since k-1 = 2*half for odd k
        half = self.k // 2
        return self.row_emb[half:half + self.k], self.col_emb[half:half + self.k]

    def _embedding_grad(self, d_offset: np.ndarray, q_part: np.ndarray) -> np.ndarray:
        # d_offset (k, n, h, H, W) x q_part (n, h, d_head/2, H, W) -> (2k-1, d_head/2)
        half = self.k // 2
        d_table = np.zeros_like(self.row_emb)
        d_table[half:half + self.k] = np.tensordot(
            d_offset, q_part, axes=([1, 2, 3, 4], [0, 1, 3, 4]))
        return d_table

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 4 or x.shape[1] != self.d_in:
            raise DimensionError(f"expected (N, {self.d_in}, H, W), got {x.shape}")
        n, _, height, width = x.shape
        k, half = self.k, self.k // 2

        x_in = x
        if self.encoding_mode == "absolute":
            x_in = x + absolute_position_signal(self.d_in, height, width)[None].astype(x.dtype)

        q = self._project(self.W_Q, x_in)                          # (n, h, d, H, W)
        v_pad = pad_hw(self._project(self.W_V, x_in), half)
        logits = np.zeros((k * k, n, self.heads, height, width), dtype=q.dtype)
        k_pad = None
        if self.W_K is not None:
            k_pad = pad_hw(self._project(self.W_K, x_in), half)
            for u, v, at in window_slices(k, height, width):
                np.einsum("nhdij,nhdij->nhij", q, k_pad[at], out=logits[u * k + v])
        if self.row_emb is not None:
            # q.[row_u; col_v] = q_row.row_u + q_col.col_v: 2k products, not k*k
            rows, cols = self._offset_embeddings()
            split = self.d_head // 2
            grid = logits.reshape(k, k, n, self.heads, height, width)
            grid += np.tensordot(rows, q[:, :, :split], axes=(1, 2))[:, None]
            grid += np.tensordot(cols, q[:, :, split:], axes=(1, 2))[None]

        valid = np.moveaxis(window_validity(height, width, k), -1, 0)[:, None, None]
        np.copyto(logits, -np.inf, where=~valid)
        attn = softmax_axis(logits, 0)

        y = np.zeros_like(q)
        for u, v, at in window_slices(k, height, width):
            y += attn[u * k + v][:, :, None] * v_pad[at]
        return (y.reshape(n, self.d_out, height, width),
                (x_in, q, k_pad, v_pad, np.moveaxis(attn, 0, -1)))

    def backward(self, dy: np.ndarray, ctx):
        x_in, q, k_pad, v_pad, attn = ctx
        attn = np.moveaxis(attn, -1, 0)                            # (k*k, n, h, H, W)
        n, _, height, width = x_in.shape
        k, half = self.k, self.k // 2
        dy_h = dy.reshape(q.shape)

        d_attn = np.empty_like(attn)
        dv_pad = np.zeros_like(v_pad)
        for u, v, at in window_slices(k, height, width):
            np.einsum("nhdij,nhdij->nhij", dy_h, v_pad[at], out=d_attn[u * k + v])
            dv_pad[at] += attn[u * k + v][:, :, None] * dy_h
        dlogits = softmax_vjp(attn, d_attn, axis=0)    # out-of-image slots: attn == 0, so 0

        grads: dict[str, np.ndarray] = {}
        dq = np.zeros_like(q)
        if k_pad is not None:
            dk_pad = np.zeros_like(k_pad)
            for u, v, at in window_slices(k, height, width):
                g = dlogits[u * k + v][:, :, None]
                dq += g * k_pad[at]
                dk_pad[at] += g * q
        if self.row_emb is not None:
            rows, cols = self._offset_embeddings()
            split = self.d_head // 2
            grid = dlogits.reshape(k, k, n, self.heads, height, width)
            d_rows, d_cols = grid.sum(axis=1), grid.sum(axis=0)    # (k, n, h, H, W)
            dq[:, :, :split] += np.moveaxis(np.tensordot(rows, d_rows, axes=(0, 0)), 0, 2)
            dq[:, :, split:] += np.moveaxis(np.tensordot(cols, d_cols, axes=(0, 0)), 0, 2)
            grads["row_emb"] = self._embedding_grad(d_rows, q[:, :, :split])
            grads["col_emb"] = self._embedding_grad(d_cols, q[:, :, split:])

        def unpad(t_pad):
            return t_pad[..., half:half + height, half:half + width]

        per_weight = [("W_Q", self.W_Q, dq), ("W_V", self.W_V, unpad(dv_pad))]
        if k_pad is not None:
            per_weight.append(("W_K", self.W_K, unpad(dk_pad)))
        x_flat = x_in.reshape(n, self.d_in, height * width)
        dx_in = 0
        for name, w, d_t in per_weight:
            d_flat = d_t.reshape(n, self.d_out, height * width)
            dx_in = dx_in + w.T @ d_flat
            grads[name] = np.tensordot(d_flat, x_flat, axes=([0, 2], [0, 2]))
        # the absolute-mode position signal is a constant, so dx = dx_in
        return dx_in.reshape(x_in.shape), grads


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


class AttentionStem:
    """First-stage layer: 4-head attention inside disjoint 4x4 blocks whose
    values mix M matrices by position within the block, followed by batch norm
    and a 4x4 stride-4 max pool (one output pixel per block).

    The mixture weight p(a,b,m) = softmax_m((emb_row[a] + emb_col[b]) . nu[m])
    is shared across heads and across blocks.

    The attention runs in one block layout. The d_in-channel input is copied
    once to (n, hb, wb, d_in, 16), slot a*4 + b holding block position (a, b),
    and Q, K and V are projected from it straight into (n, hb, wb, heads,
    d_head, 16). Logits are K^T Q with the key-slot axis t leading, (t, n, hb,
    wb, heads, s) for query slot s, so the softmax reduces over axis 0 and
    the block output y = V @ attn reads the weights through a (..., t, s)
    view. Only y goes back to NCHW, for the `norm` and `pool` children. ctx
    keeps the block input, the weights and y. Backward projects Q, K and V
    again, which an image's few input channels make cheaper than keeping
    them, and takes the softmax VJP's inner sum over key slots,
    sum_t attn * d_attn, as sum_d dy * y over d_head (the FlashAttention
    row-sum identity).
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

    @property
    def params(self):
        out = {"W_Q": self.W_Q, "W_K": self.W_K, "W_V": self.W_V,
               "emb_row": self.emb_row, "emb_col": self.emb_col, "nu": self.nu}
        for name, arr in self.norm.params.items():
            out["norm." + name] = arr
        return out

    @property
    def named_layers(self):
        return [("norm", self.norm), ("pool", self.pool)]

    def mixture_weights(self) -> np.ndarray:
        """(4, 4, M) array of p(a,b,m); rows sum to one."""
        combined = self.emb_row[:, None, :] + self.emb_col[None, :, :]     # (4, 4, E)
        logits = np.einsum("abe,me->abm", combined, self.nu, optimize=True)
        return softmax_axis(logits, -1)

    def _to_blocks(self, t: np.ndarray) -> np.ndarray:
        """(n, C, H, W) -> C-contiguous (n, hb, wb, C, win*win): each block's
        pixels at slot a*win + b for block position (a, b)."""
        n, c, height, width = t.shape
        win, hb, wb = self.WINDOW, height // self.WINDOW, width // self.WINDOW
        tb = t.reshape(n, c, hb, win, wb, win).transpose(0, 2, 4, 1, 3, 5)
        return np.ascontiguousarray(tb).reshape(n, hb, wb, c, win * win)

    def _from_blocks(self, tb: np.ndarray) -> np.ndarray:
        """Inverse of _to_blocks, for any (n, hb, wb, ..., win*win) array whose
        middle axes flatten to the channels: a C-contiguous (n, C, H, W) array."""
        n, hb, wb = tb.shape[:3]
        win = self.WINDOW
        t = tb.reshape(n, hb, wb, -1, win, win).transpose(0, 3, 1, 4, 2, 5)
        return np.ascontiguousarray(t).reshape(n, -1, hb * win, wb * win)

    def _project(self, xb: np.ndarray, w_mixed: np.ndarray):
        """Q, K and V of a block-layout input, each (n, hb, wb, heads, d_head,
        win*win). Every output costs d_in multiply-adds, so for an image
        input this is cheaper to redo in backward than to keep."""
        slots = xb.shape[-1]
        shape = xb.shape[:3] + (self.heads, self.d_head, slots)
        v = np.einsum("soi,nis->nos", w_mixed, xb.reshape(-1, self.d_in, slots), optimize=True)
        return (self.W_Q @ xb).reshape(shape), (self.W_K @ xb).reshape(shape), v.reshape(shape)

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 4 or x.shape[1] != self.d_in:
            raise DimensionError(f"expected (N, {self.d_in}, H, W), got {x.shape}")
        height, width = x.shape[2], x.shape[3]
        win = self.WINDOW
        if height % win or width % win:
            raise PaddingError(
                f"input {height}x{width} not divisible by {win}; pre-pad the image")

        p = self.mixture_weights().astype(x.dtype)                          # (4, 4, M)
        w_mixed = np.einsum("abm,moi->aboi", p, self.W_V, optimize=True).reshape(
            win * win, self.d_out, self.d_in)                               # (slot, out, in)

        xb = self._to_blocks(x)                                             # (n, hb, wb, in, s)
        q, key, v = self._project(xb, w_mixed)
        logits = np.empty((win * win,) + q.shape[:-2] + (win * win,), dtype=q.dtype)
        np.matmul(np.swapaxes(key, -2, -1), q, out=np.moveaxis(logits, 0, -2))
        attn = softmax_axis(logits, 0)                                      # (t, ..., s)
        yb = v @ np.moveaxis(attn, 0, -2)                                   # (..., d_head, s)

        normed, bn_ctx = self.norm.forward(self._from_blocks(yb), training)
        y, pool_ctx = self.pool.forward(normed, training)
        return y, (xb, p, w_mixed, attn, yb, bn_ctx, pool_ctx)

    def backward(self, dy: np.ndarray, ctx):
        xb, p, w_mixed, attn, yb, bn_ctx, pool_ctx = ctx
        d_normed, _ = self.pool.backward(dy, pool_ctx)
        d_attended, bn_grads = self.norm.backward(d_normed, bn_ctx)
        q, key, v = self._project(xb, w_mixed)

        dyb = self._to_blocks(d_attended).reshape(yb.shape)
        attn_ts = np.moveaxis(attn, 0, -2)                                  # (..., t, s)
        dv = dyb @ np.swapaxes(attn_ts, -2, -1)
        # softmax VJP over the key slots t: attn * (d_attn - sum_t attn * d_attn),
        # and sum_t attn[t, s] * (v^T dy)[t, s] = sum_d dy[d, s] * y[d, s]
        dlogits = np.empty_like(attn)
        dl_ts = np.moveaxis(dlogits, 0, -2)
        np.matmul(np.swapaxes(v, -2, -1), dyb, out=dl_ts)
        dlogits -= np.einsum("...ds,...ds->...s", dyb, yb)
        dlogits *= attn
        dq = key @ dl_ts
        dk = q @ np.swapaxes(dl_ts, -2, -1)

        slots = xb.shape[-1]
        x_flat = xb.reshape(-1, self.d_in, slots)                          # (blocks, in, s)
        dq, dk, dv = (t.reshape(-1, self.d_out, slots) for t in (dq, dk, dv))
        x_t = np.swapaxes(x_flat, -2, -1)
        grads = {"norm." + name: g for name, g in bn_grads.items()}
        grads["W_Q"] = (dq @ x_t).sum(axis=0)
        grads["W_K"] = (dk @ x_t).sum(axis=0)
        dxb = self.W_Q.T @ dq + self.W_K.T @ dk
        dxb += np.einsum("soi,nos->nis", w_mixed, dv, optimize=True)
        dx = self._from_blocks(dxb.reshape(xb.shape))

        d_wmixed = np.einsum("nos,nis->soi", dv, x_flat, optimize=True).reshape(
            self.WINDOW, self.WINDOW, self.d_out, self.d_in)
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
        x_shape, count = ctx
        n, c, height, width = x_shape
        h_out, w_out = dy.shape[2], dy.shape[3]
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
