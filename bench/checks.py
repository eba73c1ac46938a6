"""Correctness checks, run after the timed window and outside set-up.

Every check compares the program against a computation made apart from it
(the brute-force oracles in `localattn.reference`, central differences) or
against a property the method must have; none compares against stored output.
Each check returns `(passed, detail)`.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from tracer import layer_kind, layer_names, runtime_name_for_entry

# f32 program output against an f64 oracle: error relative to the output's scale
F32_TOL = 1e-4
# central difference of the whole f64 loss against <grad, d>
DIRECTIONAL_TOL = 1e-6


def scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def compare(got, want, tol=F32_TOL):
    err = scaled_error(got, want)
    return err <= tol, f"scaled max error {err:.2e} (tol {tol:.0e})"


def f64(a):
    return None if a is None else np.asarray(a, dtype=np.float64)


def window_crop(size: int, lo: int, hi: int, half: int, stride: int = 1):
    """Input rows [start, stop) holding every window member of output rows
    [lo, hi), cut only where the image itself ends, so each patch window keeps
    its in-image members and its masked border slots. `start` is a multiple
    of the stride, so crop output rows line up with image output rows."""
    start = max(0, lo * stride - half)
    start -= start % stride
    stop = min(size, (hi - 1) * stride + half + 1)
    return start, stop


def patch_origin(rng: np.random.Generator, h_out: int, w_out: int, patch: int, corner: bool):
    """A seeded patch position; `corner` pins it to a seeded image corner so
    that masked border slots are always exercised."""
    if corner:
        return (int(rng.integers(0, 2)) * (h_out - patch),
                int(rng.integers(0, 2)) * (w_out - patch))
    return int(rng.integers(0, h_out - patch + 1)), int(rng.integers(0, w_out - patch + 1))


def attention_patch(layer, x: np.ndarray, y: np.ndarray, origin, patch: int):
    """LocalAttention output `y` (computed by the program on the whole image
    `x`) against `local_attention_reference` on a crop, for one patch."""
    from localattn import reference as ref
    r0, c0 = origin
    half = layer.k // 2
    rs, re_ = window_crop(x.shape[2], r0, r0 + patch, half)
    cs, ce = window_crop(x.shape[3], c0, c0 + patch, half)
    want = ref.local_attention_reference(
        f64(x[:, :, rs:re_, cs:ce]), f64(layer.W_Q), f64(layer.W_K), f64(layer.W_V),
        f64(layer.row_emb), f64(layer.col_emb), k=layer.k, heads=layer.heads,
        mode=layer.encoding_mode)
    got = y[:, :, r0:r0 + patch, c0:c0 + patch]
    return compare(got, want[:, :, r0 - rs:r0 - rs + patch, c0 - cs:c0 - cs + patch])


def conv_patch(layer, x: np.ndarray, y: np.ndarray, origin, patch: int):
    """Conv2d output `y` against `conv2d_reference` on a crop, for one patch."""
    from localattn import reference as ref
    r0, c0 = origin
    s, half = layer.stride, layer.k // 2
    rs, re_ = window_crop(x.shape[2], r0, r0 + patch, half, s)
    cs, ce = window_crop(x.shape[3], c0, c0 + patch, half, s)
    want = ref.conv2d_reference(f64(x[:, :, rs:re_, cs:ce]), f64(layer.weight), s)
    got = y[:, :, r0:r0 + patch, c0:c0 + patch]
    return compare(got, want[:, :, r0 - rs // s:r0 - rs // s + patch,
                             c0 - cs // s:c0 - cs // s + patch])


def stem_patch(stem, x: np.ndarray, y: np.ndarray, origin, patch: int):
    """AttentionStem inference output `y` (one pixel per 4x4 block) against
    `stem_attention_reference` on the block-aligned crop under the patch."""
    from localattn import reference as ref
    r0, c0 = origin
    win = stem.WINDOW
    crop = x[:, :, r0 * win:(r0 + patch) * win, c0 * win:(c0 + patch) * win]
    norm = stem.norm
    want = ref.stem_attention_reference(
        f64(crop), f64(stem.W_Q), f64(stem.W_K), f64(stem.W_V), f64(stem.emb_row),
        f64(stem.emb_col), f64(stem.nu), heads=stem.heads, gamma=f64(norm.gamma),
        beta=f64(norm.beta), running_mean=f64(norm.running_mean),
        running_var=f64(norm.running_var), epsilon=norm.epsilon)
    return compare(y[:, :, r0:r0 + patch, c0:c0 + patch], want)


def layer_input(model, x: np.ndarray, target: str) -> np.ndarray:
    """Inference-mode activation entering the named layer: the model's
    top-level layers run in order, and the bottleneck holding the target runs
    its main branch up to it."""
    for name, layer in model.named_layers:
        if name == target:
            return x
        if target.startswith(name + ".main."):
            for sub_name, sub in layer.main.named_layers:
                if target == f"{name}.main.{sub_name}":
                    return x
                x, _ = sub.forward(x, training=False)
        x, _ = layer.forward(x, training=False)
    raise KeyError(target)


def find_layer(model, target: str):
    for layer, name in layer_names(model).items():
        if name == target:
            return layer
    raise KeyError(target)


def output_patches(model, images: np.ndarray, target: str, rng, patch: int):
    """Check one named layer of a built model on two seeded patches (one
    pinned to a corner) of its inference-mode output."""
    import localattn as la
    layer = find_layer(model, target)
    x = layer_input(model, images, target)
    y, _ = layer.forward(x, training=False)
    h_out, w_out = y.shape[2], y.shape[3]
    check = {la.LocalAttention: attention_patch, la.Conv2d: conv_patch,
             la.AttentionStem: stem_patch}[type(layer)]
    results = []
    for corner in (True, False):
        origin = patch_origin(rng, h_out, w_out, patch, corner)
        ok, detail = check(layer, x, y, origin, patch)
        results.append((f"{target} {y.shape[2]}x{y.shape[3]} patch@{origin} vs oracle",
                        ok, detail))
    return results


def gradients(params: dict, grads: dict, loss: float):
    """Every parameter has exactly one finite gradient of its own shape, and
    the loss is finite."""
    missing = sorted(set(params) - set(grads))
    extra = sorted(set(grads) - set(params))
    bad_shape = [k for k in params if k in grads and grads[k].shape != params[k].shape]
    not_finite = [k for k in grads if not np.all(np.isfinite(grads[k]))]
    ok = not (missing or extra or bad_shape or not_finite) and math.isfinite(loss)
    detail = (f"{len(grads)} gradients for {len(params)} parameters; missing {missing[:3]}, "
              f"extra {extra[:3]}, shape {bad_shape[:3]}, non-finite {not_finite[:3]}, "
              f"loss {loss:.6g}")
    return ok, detail


def directional_derivative(model, images: np.ndarray, labels: np.ndarray,
                           smoothing: float, rng, steps=(1e-6, 1e-7, 1e-8)):
    """Central difference of the whole training-mode loss along a random unit
    direction d against <grad L, d>, in float64.

    A step that straddles a ReLU or max-pool kink spoils the difference
    quotient, not the gradient (at 1e-6 about one seed in 300 does), so the
    check passes when the difference at any of the nested `steps` agrees; a
    wrong gradient disagrees at all of them."""
    from localattn import train
    params = model.params

    def loss_at():
        logits, tape = model.forward(images, training=True)
        loss, dlogits = train.cross_entropy_smoothed(logits, labels, smoothing)
        return loss, tape, dlogits

    loss, tape, dlogits = loss_at()
    _, grads = tape.backward(dlogits)
    direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(float(np.sum(grads[k] * d)) for k, d in direction.items()) / norm
    base = {k: p.copy() for k, p in params.items()}
    errors = []
    for eps in steps:
        values = []
        for sign in (1.0, -1.0):
            for k, p in params.items():
                p[...] = base[k] + sign * eps * direction[k] / norm
            values.append(loss_at()[0])
        numeric = (values[0] - values[1]) / (2 * eps)
        errors.append(abs(numeric - analytic) / max(1.0, abs(analytic)))
        if errors[-1] <= DIRECTIONAL_TOL:
            break
    for k, p in params.items():
        p[...] = base[k]
    return errors[-1] <= DIRECTIONAL_TOL, (
        f"<grad, d> {analytic:.9g}; central-difference errors "
        + ", ".join(f"{e:.2e} at {eps:.0e}" for e, eps in zip(errors, steps))
        + f" (tol {DIRECTIONAL_TOL:.0e})")


def loss_falls(rows):
    """Training loss of the last epoch is below that of the first."""
    first, last = rows[0][3], rows[-1][3]
    return last < first, f"epoch 1 loss {first:.6g} -> epoch {len(rows)} loss {last:.6g}"


def same_bits(a: float, b: float):
    same = np.float64(a).tobytes() == np.float64(b).tobytes()
    return same, f"{a!r} vs {b!r}"


def verify_suites(results):
    """`run_all` returned its three suites, none empty, each passing at the
    program's own tolerances."""
    names = [s.name for s in results]
    sizes = {s.name: len(s.checks) for s in results}
    failed = [f"{s.name}: {c.label}" for s in results for c in s.checks if not c.passed]
    ok = (sorted(names) == ["gradcheck", "invariant", "oracle"]
          and min(sizes.values(), default=0) > 0 and not failed)
    return ok, f"checks per suite {sizes}; failing {failed[:3]}"


def ledger_join(model, report):
    """Ledger entries and runtime layer names match one to one. ReLUs have no
    entry (the convention leaves them uncounted); the attention stem's entry
    and its `.norm` and `.pool` entries all price the one stem layer."""
    import localattn as la
    stem_norms = {layer.norm for layer, _ in layer_names(model).items()
                  if isinstance(layer, la.AttentionStem)}
    runtime = Counter()
    for layer, name in layer_names(model).items():
        if layer_kind(layer) in ("block", "elementwise") or layer in stem_norms:
            continue
        runtime[name] += 3 if isinstance(layer, la.AttentionStem) else 1
    priced = Counter(runtime_name_for_entry(e.name) for e in report.entries)
    unmatched = sorted((priced - runtime) + (runtime - priced))
    return priced == runtime, (f"{len(report.entries)} ledger entries onto {len(runtime)} runtime layers; "
                f"unmatched {unmatched[:4]}")
