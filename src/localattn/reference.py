"""Brute-force reference evaluations used to verify the vectorized layers.

Everything here is written as plain per-pixel loops and imports nothing from
the package, so agreement with the fast implementations is evidence rather
than tautology. Each pixel's per-head query, key and value projections are
computed once per call and looked up, as are the stem's 16 position-mixed
value transforms; the logits, softmax and weighted sums stay loops over
(query, head, key), the sums in Python floats. All functions promote to
float64. Slow on purpose; use small shapes.
"""

from __future__ import annotations

import math

import numpy as np


def _softmax_list(logits: list[float]) -> list[float]:
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    z = sum(exps)
    return [e / z for e in exps]


def conv2d_reference(x: np.ndarray, weight: np.ndarray, stride: int = 1) -> np.ndarray:
    """Direct evaluation of y_ij = sum_{a,b in N_k(i,j)} W_{i-a, j-b} x_ab.

    weight has shape (k, k, d_out, d_in), indexed by (i-a+half, j-b+half).
    Out-of-image neighbors contribute zero. Output centers sit at i = i'*stride
    so the output is ceil(H/stride) per axis.
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c, height, width = x.shape
    k = weight.shape[0]
    d_out = weight.shape[2]
    half = k // 2
    h_out = -(-height // stride)
    w_out = -(-width // stride)
    y = np.zeros((n, d_out, h_out, w_out))
    for img in range(n):
        for o in range(d_out):
            for ip in range(h_out):
                for jp in range(w_out):
                    i, j = ip * stride, jp * stride
                    acc = 0.0
                    for a in range(i - half, i + half + 1):
                        for b in range(j - half, j + half + 1):
                            if not (0 <= a < height and 0 <= b < width):
                                continue
                            w_ab = weight[i - a + half, j - b + half, o]
                            for ch in range(c):
                                acc += w_ab[ch] * x[img, ch, a, b]
                    y[img, o, ip, jp] = acc
    return y


def absolute_position_signal_reference(d: int, height: int, width: int) -> np.ndarray:
    """Per-element sinusoid construction: first d/2 channels encode the row
    index, the rest the column index, at geometrically spaced frequencies
    (base 10000) within each half."""
    sig = np.zeros((d, height, width))
    d_row = d // 2
    d_col = d - d_row
    for i in range(height):
        for j in range(width):
            for ch in range(d_row):
                angle = i / (10000.0 ** ((ch - ch % 2) / d_row))
                sig[ch, i, j] = math.sin(angle) if ch % 2 == 0 else math.cos(angle)
            for ch in range(d_col):
                angle = j / (10000.0 ** ((ch - ch % 2) / d_col))
                sig[d_row + ch, i, j] = math.sin(angle) if ch % 2 == 0 else math.cos(angle)
    return sig


def _weighted_sum(weights: list[float], vectors: list[np.ndarray]) -> list[float]:
    """sum_i weights[i] * vectors[i], accumulated element by element in
    vector order, in Python floats."""
    out = [0.0] * len(vectors[0])
    for w, vec in zip(weights, vectors):
        for t, v in enumerate(vec.tolist()):
            out[t] += w * v
    return out


def _head_rows(d_out: int, heads: int) -> list[slice]:
    d_head = d_out // heads
    return [slice(h * d_head, (h + 1) * d_head) for h in range(heads)]


def _project(w: np.ndarray, x_img: np.ndarray, head_rows: list[slice]) -> dict:
    """Each pixel's per-head projections of a (C, H, W) image or block,
    (a, b) -> [w[rows] @ x_ab per head]."""
    _, height, width = x_img.shape
    return {(a, b): [w[rows] @ x_img[:, a, b] for rows in head_rows]
            for a in range(height) for b in range(width)}


def local_attention_reference(
    x: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray | None,
    w_v: np.ndarray,
    row_emb: np.ndarray | None,
    col_emb: np.ndarray | None,
    k: int,
    heads: int,
    mode: str,
) -> np.ndarray:
    """Per-pixel, per-head evaluation of local attention over k x k windows.

    Head n uses rows [n*d_head, (n+1)*d_head) of each transform. Logits are
    q.k for content, plus q.r for relative modes, where r concatenates the
    row-offset and column-offset embedding rows (index offset + k - 1).
    Softmax runs over the in-image neighbors only.
    """
    x = np.asarray(x, dtype=np.float64)
    w_q, w_k, w_v, row_emb, col_emb = (None if t is None else np.asarray(t, dtype=np.float64)
                                       for t in (w_q, w_k, w_v, row_emb, col_emb))
    content = mode != "relative_only"
    relative = mode in ("relative", "relative_only")
    n, c, height, width = x.shape
    d_out = w_q.shape[0] if content else w_v.shape[0]
    head_rows = _head_rows(d_out, heads)
    half = k // 2

    if mode == "absolute":
        x = x + absolute_position_signal_reference(c, height, width)[None]

    y = np.zeros((n, d_out, height, width))
    for img in range(n):
        queries = _project(w_q, x[img], head_rows)
        keys = _project(w_k, x[img], head_rows) if content else None
        values = _project(w_v, x[img], head_rows)
        for i in range(height):
            for j in range(width):
                neighbors = [
                    (a, b)
                    for a in range(i - half, i + half + 1)
                    for b in range(j - half, j + half + 1)
                    if 0 <= a < height and 0 <= b < width
                ]
                for h, rows in enumerate(head_rows):
                    q = queries[i, j][h]
                    logits = []
                    for a, b in neighbors:
                        l = 0.0
                        if content:
                            l += float(q @ keys[a, b][h])
                        if relative:
                            r = np.concatenate([row_emb[a - i + k - 1], col_emb[b - j + k - 1]])
                            l += float(q @ r)
                        logits.append(l)
                    probs = _softmax_list(logits)
                    y[img, rows, i, j] = _weighted_sum(probs, [values[a, b][h]
                                                               for a, b in neighbors])
    return y


def global_attention_reference(
    x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray, heads: int
) -> np.ndarray:
    """All-pairs (every pixel attends to every pixel) attention, mode none."""
    x = np.asarray(x, dtype=np.float64)
    n, c, height, width = x.shape
    d_out = w_q.shape[0]
    head_rows = _head_rows(d_out, heads)
    y = np.zeros((n, d_out, height, width))
    pixels = [(a, b) for a in range(height) for b in range(width)]
    for img in range(n):
        queries = _project(w_q, x[img], head_rows)
        keys = _project(w_k, x[img], head_rows)
        values = _project(w_v, x[img], head_rows)
        for i, j in pixels:
            for h, rows in enumerate(head_rows):
                q = queries[i, j][h]
                logits = [float(q @ keys[a, b][h]) for a, b in pixels]
                probs = _softmax_list(logits)
                y[img, rows, i, j] = _weighted_sum(probs, [values[a, b][h] for a, b in pixels])
    return y


def stem_mixture_weights_reference(
    emb_row: np.ndarray, emb_col: np.ndarray, nu: np.ndarray, a: int, b: int
) -> np.ndarray:
    """p(a,b,m) = softmax_m((emb_row[a] + emb_col[b]) . nu[m]), by direct loops."""
    m_count = nu.shape[0]
    logits = []
    for m in range(m_count):
        acc = 0.0
        for t in range(nu.shape[1]):
            acc += (emb_row[a, t] + emb_col[b, t]) * nu[m, t]
        logits.append(acc)
    return np.array(_softmax_list(logits))


def stem_attention_reference(
    x: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    emb_row: np.ndarray,
    emb_col: np.ndarray,
    nu: np.ndarray,
    heads: int,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Disjoint 4x4 block attention with position-mixed values, then batch
    norm (inference statistics) and a 4x4 stride-4 max pool. w_v stacks the M
    mixture matrices as (M, d_out, d_in)."""
    x = np.asarray(x, dtype=np.float64)
    n, c, height, width = x.shape
    d_out = w_q.shape[0]
    head_rows = _head_rows(d_out, heads)
    win = 4
    cells = [(a, b) for a in range(win) for b in range(win)]
    mixed = {}
    for a, b in cells:
        p = stem_mixture_weights_reference(emb_row, emb_col, nu, a, b)
        mixed[a, b] = sum(p[m] * w_v[m] for m in range(w_v.shape[0]))
    attended = np.zeros((n, d_out, height, width))
    for img in range(n):
        for bi in range(height // win):
            for bj in range(width // win):
                block = x[img, :, bi * win:(bi + 1) * win, bj * win:(bj + 1) * win]
                queries = _project(w_q, block, head_rows)
                keys = _project(w_k, block, head_rows)
                values = {}
                for a, b in cells:
                    v = mixed[a, b] @ block[:, a, b]
                    values[a, b] = [v[rows] for rows in head_rows]
                for a, b in cells:
                    for h, rows in enumerate(head_rows):
                        q = queries[a, b][h]
                        logits = [float(q @ keys[cell][h]) for cell in cells]
                        probs = _softmax_list(logits)
                        attended[img, rows, bi * win + a, bj * win + b] = _weighted_sum(
                            probs, [values[cell][h] for cell in cells])
    normed = np.zeros_like(attended)
    for ch in range(d_out):
        normed[:, ch] = gamma[ch] * (attended[:, ch] - running_mean[ch]) / math.sqrt(
            running_var[ch] + epsilon) + beta[ch]
    pooled = np.zeros((n, d_out, height // win, width // win))
    for img in range(n):
        for ch in range(d_out):
            for bi in range(height // win):
                for bj in range(width // win):
                    block = normed[img, ch, bi * win:(bi + 1) * win, bj * win:(bj + 1) * win]
                    pooled[img, ch, bi, bj] = block.max()
    return pooled


def max_pool_reference(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Naive windowed max; padding slots are excluded, not compared."""
    x = np.asarray(x, dtype=np.float64)
    n, c, height, width = x.shape
    h_out = -(-height // stride)
    w_out = -(-width // stride)
    pad_h = max(0, (h_out - 1) * stride + window - height) // 2
    pad_w = max(0, (w_out - 1) * stride + window - width) // 2
    y = np.zeros((n, c, h_out, w_out))
    for img in range(n):
        for ch in range(c):
            for i in range(h_out):
                for j in range(w_out):
                    best = -math.inf
                    for u in range(window):
                        for v in range(window):
                            a = i * stride - pad_h + u
                            b = j * stride - pad_w + v
                            if 0 <= a < height and 0 <= b < width:
                                best = max(best, x[img, ch, a, b])
                    y[img, ch, i, j] = best
    return y


def avg_pool_2x2_reference(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 average, averaging only in-image elements at odd borders."""
    x = np.asarray(x, dtype=np.float64)
    n, c, height, width = x.shape
    h_out = -(-height // 2)
    w_out = -(-width // 2)
    y = np.zeros((n, c, h_out, w_out))
    for img in range(n):
        for ch in range(c):
            for i in range(h_out):
                for j in range(w_out):
                    vals = [
                        x[img, ch, a, b]
                        for a in (2 * i, 2 * i + 1) if a < height
                        for b in (2 * j, 2 * j + 1) if b < width
                    ]
                    y[img, ch, i, j] = sum(vals) / len(vals)
    return y
