"""Self-verification suites.

Three suites, each a list of labeled checks:

  oracle_suite     layer outputs vs independent brute-force evaluations
  invariant_suite  structural properties (normalization, equivariance, reductions)
  gradcheck_suite  analytic gradients vs central finite differences

All checks run in double precision with seeded generators so repeated runs
produce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import reference as ref
from .autodiff import gradcheck
from .layers import (
    AttentionStem,
    AvgPool2x2,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool,
    Linear,
    LocalAttention,
    MODES,
    MaxPool,
    ReLU,
)
from .model import Bottleneck, ModelSpec, build_model
from .tensorops import pad_hw, softmax_axis, window_slices, window_validity


@dataclass
class CheckResult:
    label: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"  {self.label:<52s} {status}  {self.detail}"


@dataclass
class SuiteResult:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, err: float, tol: float) -> None:
        self.checks.append(CheckResult(label, bool(err <= tol),
                                       f"max_err {err:.3e} (tol {tol:.0e})"))

    def add_flag(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(label, bool(passed), detail))

    def lines(self) -> list[str]:
        verdict = "pass" if self.passed else "FAIL"
        out = [f"[{self.name}] {verdict} ({len(self.checks)} checks)"]
        out.extend(c.line() for c in self.checks)
        return out


def _attention_layer(rng: np.random.Generator, mode: str, k: int,
                     heads: int, d_in: int) -> LocalAttention:
    return LocalAttention(d_in, 4 * heads, k=k, heads=heads, encoding_mode=mode,
                          rng=rng, dtype=np.float64)


def oracle_suite(seed: int = 0) -> SuiteResult:
    """Compare every composed layer against an independent per-element oracle."""
    rng = np.random.default_rng(seed)
    suite = SuiteResult("oracle")
    instances = 0

    # masked softmax vs closed form: logits [1, -inf, 3], the -inf slot masked out
    got = softmax_axis(np.array([1.0, -np.inf, 3.0]), -1)
    want = np.array([1.0 / (1.0 + np.e ** 2), 0.0, np.e ** 2 / (1.0 + np.e ** 2)])
    suite.add("masked softmax vs closed form", float(np.max(np.abs(got - want))), 1e-12)
    instances += 1

    # the layers' window slot map over the padded image and the validity mask
    # vs a direct gather and bounds test, every center of a 6x6 image
    x = rng.standard_normal((1, 2, 6, 6))
    err = 0.0
    k = 5
    xp = pad_hw(x, k // 2)
    valid = window_validity(6, 6, k)
    for i in range(6):
        for j in range(6):
            for u, v, at in window_slices(k, 6, 6):
                r, c = i - k // 2 + u, j - k // 2 + v
                inside = 0 <= r < 6 and 0 <= c < 6
                want = x[:, :, r, c] if inside else 0.0
                err = max(err, float(np.max(np.abs(xp[at][:, :, i, j] - want))))
                if valid[i, j, u * k + v] != inside:
                    err = max(err, 1.0)
            instances += 1
    suite.add("window_validity and padding vs gather (36 centers)", err, 1e-15)

    # convolution vs five-nested-loop evaluation
    err = 0.0
    count = 0
    for k in (1, 3, 5):
        for stride in (1, 2):
            for _ in range(9):
                h, w = int(rng.integers(4, 8)), int(rng.integers(4, 8))
                c_in, c_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
                layer = Conv2d(c_in, c_out, k, stride=stride, rng=rng, dtype=np.float64)
                x = rng.standard_normal((2, c_in, h, w))
                y, _ = layer.forward(x)
                want = ref.conv2d_reference(x, layer.weight, stride)
                err = max(err, float(np.max(np.abs(y - want))))
                count += 1
                instances += 1
    suite.add(f"conv2d vs nested-loop oracle ({count} instances)", err, 1e-8)

    conv_instances = count

    # local attention vs per-pixel brute force, all four encoding modes
    attention_instances = 0
    for mode in MODES:
        err = 0.0
        count = 0
        for k in (3, 5):
            for _ in range(7):
                heads = int(rng.integers(1, 3))
                # even per-head width so every encoding mode accepts the draw
                d_in = heads * 2 * int(rng.integers(1, 3))
                layer = _attention_layer(rng, mode, k, heads, d_in)
                h, w = int(rng.integers(4, 8)), int(rng.integers(4, 8))
                x = rng.standard_normal((2, d_in, h, w))
                y, _ = layer.forward(x)
                want = ref.local_attention_reference(
                    x, layer.W_Q,
                    None if mode == "relative_only" else layer.W_K, layer.W_V,
                    getattr(layer, "row_emb", None), getattr(layer, "col_emb", None),
                    k=k, heads=heads, mode=mode)
                err = max(err, float(np.max(np.abs(y - want))))
                count += 1
                instances += 1
        suite.add(f"local_attention[{mode}] vs per-pixel oracle ({count} instances)",
                  err, 1e-8)
        attention_instances += count

    # attention stem vs compositional oracle (value mixing + block attention
    # + inference batch norm + max pool)
    err = 0.0
    count = 0
    for _ in range(52):
        d_out = int(rng.integers(1, 3)) * 8
        stem = AttentionStem(3, d_out, rng=rng, dtype=np.float64)
        stem.norm.running_mean = rng.standard_normal(d_out)
        stem.norm.running_var = rng.uniform(0.5, 2.0, d_out)
        h = 4 * int(rng.integers(1, 4))
        w = 4 * int(rng.integers(1, 4))
        x = rng.standard_normal((2, 3, h, w))
        y, _ = stem.forward(x, training=False)
        want = ref.stem_attention_reference(
            x, stem.W_Q, stem.W_K, stem.W_V, stem.emb_row, stem.emb_col, stem.nu,
            heads=stem.heads, gamma=stem.norm.gamma, beta=stem.norm.beta,
            running_mean=stem.norm.running_mean, running_var=stem.norm.running_var,
            epsilon=stem.norm.epsilon)
        err = max(err, float(np.max(np.abs(y - want))))
        count += 1
        instances += 1
    suite.add(f"stem_attention vs compositional oracle ({count} instances)", err, 1e-8)

    # pooling vs naive windowed oracles
    x = rng.standard_normal((2, 3, 6, 6))
    y, _ = MaxPool(3, 2).forward(x)
    suite.add("max_pool 3x3/2 vs naive oracle",
              float(np.max(np.abs(y - ref.max_pool_reference(x, 3, 2)))), 1e-15)
    x = rng.standard_normal((2, 3, 5, 7))
    y, _ = AvgPool2x2().forward(x)
    suite.add("avg_pool 2x2/2 vs naive oracle",
              float(np.max(np.abs(y - ref.avg_pool_2x2_reference(x)))), 1e-15)
    instances += 2

    suite.add_flag(
        "conv2d, local_attention, stem_attention each saw >= 50 instances",
        min(conv_instances, attention_instances, count) >= 50,
        f"conv {conv_instances}, attention {attention_instances}, stem {count}; "
        f"{instances} total")
    return suite


def invariant_suite(seed: int = 0) -> SuiteResult:
    """Structural properties every build must satisfy regardless of weights."""
    rng = np.random.default_rng(seed)
    suite = SuiteResult("invariant")

    # softmax rows with slots masked out by -inf logits: sum to one,
    # nonnegative, masked slots exactly zero, invariant to a constant shift
    sum_err, shift_err, neg = 0.0, 0.0, 0.0
    masked_exact = True
    for _ in range(20):
        logits = rng.standard_normal((3, 7)) * rng.uniform(0.5, 50)
        mask = rng.random((3, 7)) < 0.7
        mask[:, 0] = True                       # keep every group non-degenerate
        logits[~mask] = -np.inf
        p = softmax_axis(logits, -1)
        sum_err = max(sum_err, float(np.max(np.abs(p.sum(-1) - 1.0))))
        neg = min(neg, float(p.min()))
        if np.any(p[~mask] != 0.0):
            masked_exact = False
        shifted = softmax_axis(logits + rng.uniform(-100, 100), -1)
        shift_err = max(shift_err, float(np.max(np.abs(p - shifted))))
    suite.add("softmax groups sum to one", sum_err, 1e-6)
    suite.add("softmax invariant to constant shift", shift_err, 1e-9)
    suite.add_flag("softmax nonnegative, masked slots exactly zero",
                   neg >= 0.0 and masked_exact)

    # neighborhood mask count equals the analytic in-bounds count
    ok = True
    h, w = 5, 6
    for k in (3, 5):
        half = k // 2
        valid = window_validity(h, w, k)
        for i in range(h):
            for j in range(w):
                rows = min(i + half, h - 1) - max(i - half, 0) + 1
                cols = min(j + half, w - 1) - max(j - half, 0) + 1
                ok = ok and int(valid[i, j].sum()) == rows * cols
    suite.add_flag("neighborhood valid count matches geometry", ok)

    # attention weights are a convex combination at every pixel, borders included
    sum_err, neg = 0.0, 0.0
    masked_exact = True
    for mode in MODES:
        layer = _attention_layer(rng, mode, 5, 2, 4)
        _, ctx = layer.forward(rng.standard_normal((2, 4, 6, 7)))
        attn = layer.window_weights(ctx)
        sum_err = max(sum_err, float(np.max(np.abs(attn.sum(-1) - 1.0))))
        neg = min(neg, float(attn.min()))
        invalid = ~window_validity(6, 7, 5).reshape(1, 1, 6, 7, 25)
        if np.any(attn[np.broadcast_to(invalid, attn.shape)] != 0.0):
            masked_exact = False
    suite.add("attention weights sum to one (all modes, with borders)", sum_err, 1e-6)
    suite.add_flag("attention weights nonnegative, out-of-image slots exactly zero",
                   neg >= 0.0 and masked_exact)

    # mode none: permuting a neighborhood's contents (center query fixed)
    # leaves that pixel's output unchanged
    err = 0.0
    k, half = 5, 2
    for _ in range(6):
        layer = _attention_layer(rng, "none", k, 2, 4)
        x = rng.standard_normal((1, 4, 8, 8))
        i, j = int(rng.integers(half, 8 - half)), int(rng.integers(half, 8 - half))
        members = [(i - half + u, j - half + v)
                   for u in range(k) for v in range(k) if (u, v) != (half, half)]
        order = rng.permutation(len(members))
        x_perm = x.copy()
        for dst, src in enumerate(order):
            x_perm[:, :, members[dst][0], members[dst][1]] = \
                x[:, :, members[src][0], members[src][1]]
        y1 = layer.forward(x)[0][:, :, i, j]
        y2 = layer.forward(x_perm)[0][:, :, i, j]
        err = max(err, float(np.max(np.abs(y1 - y2))))
    suite.add("neighborhood permutation invariance (mode none)", err, 1e-9)

    # relative mode: translated inputs give translated outputs wherever the
    # neighborhood stays fully interior in both crops
    err = 0.0
    k, half = 5, 2
    for shift in (1, 2):
        layer = _attention_layer(rng, "relative", k, 2, 4)
        x = rng.standard_normal((1, 4, 12, 12))
        h = w = 12 - shift
        y1, _ = layer.forward(x[:, :, :h, :w])
        y2, _ = layer.forward(x[:, :, shift:, shift:])
        lo, hi = shift + half, 12 - shift - half
        err = max(err, float(np.max(np.abs(
            y1[:, :, lo:hi, lo:hi] - y2[:, :, lo - shift:hi - shift,
                                        lo - shift:hi - shift]))))
    suite.add("interior translation equivariance (mode relative)", err, 1e-9)

    # zeroing the relative tables reduces relative attention to content-only
    layer_rel = _attention_layer(rng, "relative", 5, 2, 4)
    layer_rel.row_emb[:] = 0.0
    layer_rel.col_emb[:] = 0.0
    layer_none = _attention_layer(rng, "none", 5, 2, 4)
    layer_none.W_Q[:] = layer_rel.W_Q
    layer_none.W_K[:] = layer_rel.W_K
    layer_none.W_V[:] = layer_rel.W_V
    x = rng.standard_normal((2, 4, 6, 7))
    err = float(np.max(np.abs(layer_rel.forward(x)[0] - layer_none.forward(x)[0])))
    suite.add("zero embeddings reduce relative to content-only", err, 1e-12)

    # 1x1 convolution is a per-pixel linear map
    layer = Conv2d(3, 5, 1, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 3, 4, 4))
    y, _ = layer.forward(x)
    want = np.einsum("oc,nchw->nohw", layer.weight[0, 0], x)
    suite.add("conv2d k=1 equals pointwise linear map",
              float(np.max(np.abs(y - want))), 1e-12)

    # a window covering the whole image reproduces all-pairs global attention
    h, w = 5, 4
    layer = _attention_layer(rng, "none", 2 * max(h, w) - 1, 2, 4)
    x = rng.standard_normal((2, 4, h, w))
    want = ref.global_attention_reference(x, layer.W_Q, layer.W_K, layer.W_V,
                                          heads=2)
    suite.add("full-extent window equals global attention",
              float(np.max(np.abs(layer.forward(x)[0] - want))), 1e-8)

    # stem mixture weights: valid distribution per window position; singleton
    # mixture collapses to [1]; identical nu rows give the uniform distribution
    stem = AttentionStem(3, 8, rng=rng, dtype=np.float64)
    p = stem.mixture_weights()
    suite.add("stem mixture rows sum to one (16 positions)",
              float(np.max(np.abs(p.sum(-1) - 1.0))), 1e-6)
    single = AttentionStem(3, 8, mixtures=1, rng=rng, dtype=np.float64)
    err = float(np.max(np.abs(single.mixture_weights() - 1.0)))
    uniform = AttentionStem(3, 8, mixtures=4, rng=rng, dtype=np.float64)
    uniform.nu[:] = uniform.nu[0]
    err = max(err, float(np.max(np.abs(uniform.mixture_weights() - 0.25))))
    suite.add_flag("mixture edge cases (M=1 and symmetric logits)", err <= 1e-12,
                   f"max_err {err:.3e}")

    # transform parameter count does not grow with the window extent
    sizes = set()
    for k in (3, 7, 11):
        layer = _attention_layer(rng, "relative", k, 2, 4)
        sizes.add(sum(layer.params[n].size for n in ("W_Q", "W_K", "W_V")))
    suite.add_flag("W_Q/K/V size independent of extent", len(sizes) == 1,
                   f"sizes {sorted(sizes)}")

    # training-mode batch norm standardizes each channel
    bn = BatchNorm2d(3, dtype=np.float64)
    x = rng.standard_normal((8, 3, 5, 5)) * 3.0 + 1.0
    y, _ = bn.forward(x, training=True)
    mean_err = float(np.max(np.abs(y.mean(axis=(0, 2, 3)))))
    var_err = float(np.max(np.abs(y.var(axis=(0, 2, 3)) - 1.0)))
    suite.add("batch norm training mean zero", mean_err, 1e-6)
    suite.add("batch norm training variance one", var_err, 1e-4)

    # model transformation: attention groups hold no spatial convolutions and
    # conv groups no attention layers
    attn_spec = ModelSpec(block_counts=(1, 1), groups=("attention", "attention"),
                          stem="attention_stem", width_multiplier=0.125, k=3,
                          heads=2, num_classes=4, input_resolution=32)
    conv_spec = ModelSpec(block_counts=(1, 1), groups=("conv", "conv"),
                          stem="conv_stem", width_multiplier=0.125, k=3,
                          heads=2, encoding_mode="none", num_classes=4,
                          input_resolution=32)
    attn_census = build_model(attn_spec, seed=0).census()
    conv_census = build_model(conv_spec, seed=0).census()
    suite.add_flag(
        "census: attention model has no spatial conv and vice versa",
        attn_census["spatial_conv"] == 0 and attn_census["attention"] == 2
        and attn_census["attention_stem"] == 1 and attn_census["conv_stem"] == 0
        and conv_census["attention"] == 0 and conv_census["spatial_conv"] == 2
        and conv_census["conv_stem"] == 1 and conv_census["attention_stem"] == 0,
        f"attention {attn_census}, conv {conv_census}")

    return suite


def gradcheck_layers(seed: int = 0) -> list[tuple[str, object, tuple]]:
    """Every layer type paired with a small input shape for checking."""
    rngs = iter(np.random.default_rng(seed + i) for i in range(32))
    entries: list[tuple[str, object, tuple]] = [
        ("conv2d k=3 s=1", Conv2d(3, 4, 3, rng=next(rngs), dtype=np.float64),
         (2, 3, 5, 6)),
        ("conv2d k=3 s=2", Conv2d(3, 4, 3, stride=2, rng=next(rngs),
                                  dtype=np.float64), (2, 3, 5, 6)),
    ]
    for mode in MODES:
        entries.append((f"local_attention {mode}",
                        LocalAttention(4, 4, k=3, heads=2, encoding_mode=mode,
                                       rng=next(rngs), dtype=np.float64),
                        (1, 4, 5, 5)))
    entries += [
        ("attention stem", AttentionStem(3, 8, rng=next(rngs), dtype=np.float64),
         (2, 3, 8, 8)),
        ("batch norm", BatchNorm2d(3, dtype=np.float64), (3, 3, 4, 4)),
        ("max pool 3x3 s=2", MaxPool(3, 2), (2, 3, 6, 6)),
        ("avg pool 2x2", AvgPool2x2(), (2, 3, 5, 6)),
        ("relu", ReLU(), (2, 3, 4, 4)),
        ("global avg pool", GlobalAvgPool(), (2, 3, 4, 5)),
        ("linear", Linear(6, 4, rng=next(rngs), dtype=np.float64), (3, 6)),
        ("bottleneck conv downsample",
         Bottleneck(8, 4, "conv", downsample=True, k=3, heads=2,
                    encoding_mode="none", bn_decay=0.9, rng=next(rngs),
                    dtype=np.float64), (2, 8, 6, 6)),
        ("bottleneck attention downsample",
         Bottleneck(8, 4, "attention", downsample=True, k=3, heads=2,
                    encoding_mode="relative", bn_decay=0.9, rng=next(rngs),
                    dtype=np.float64), (2, 8, 6, 6)),
    ]
    return entries


def gradcheck_suite(seed: int = 0, tolerance: float = 1e-4) -> SuiteResult:
    """Finite-difference verification of every layer type's backward pass."""
    suite = SuiteResult("gradcheck")
    for label, layer, shape in gradcheck_layers(seed):
        errors = gradcheck(layer, shape, seed=seed)
        suite.add(label, max(errors.values()), tolerance)
    return suite


def run_all(seed: int = 0, timings: dict[str, float] | None = None) -> list[SuiteResult]:
    """The oracle, invariant and gradcheck suites, in that order. `timings`,
    if given, receives each suite's wall seconds under its name."""
    suites = []
    for run in (lambda: oracle_suite(seed), lambda: invariant_suite(seed),
                lambda: gradcheck_suite(seed)):
        start = time.perf_counter()
        suites.append(run())
        if timings is not None:
            timings[suites[-1].name] = time.perf_counter() - start
    return suites
