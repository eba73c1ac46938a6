"""Layer forward semantics: convolution, local attention, stem, pools, norm."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from localattn import reference as ref
from localattn import tensorops
from localattn.autodiff import gradcheck
from localattn.errors import (
    ConfigurationError,
    DegenerateGroupError,
    DimensionError,
    PaddingError,
    UnsupportedExtentError,
)
from localattn.layers import (
    AttentionStem,
    AvgPool2x2,
    BatchNorm2d,
    Conv2d,
    LocalAttention,
    MaxPool,
    absolute_position_signal,
)

MODES = ("none", "absolute", "relative", "relative_only")

# (batch, H, W, k, heads): a 5x5 image with batch 1, then images smaller than
# the window, H != W, a single pixel, a single head and k = 1; then sides
# longer than 2k, which are cut into query blocks: both axes blocked with a
# padded last block, one axis blocked and the other whole, and k = 1 blocked;
# last, 64 items (batch x heads x 4 x 4 blocks) of 8 KiB of f64 logits, which
# block_attention runs as two tiles
SHAPES = {
    "5x5": (1, 5, 5, 3, 2),
    "2x2-k7": (2, 2, 2, 7, 2),
    "3x2-k5": (2, 3, 2, 5, 2),
    "4x9": (2, 4, 9, 3, 2),
    "1x1": (2, 1, 1, 3, 2),
    "heads1": (2, 4, 4, 3, 1),
    "k1": (2, 4, 4, 1, 2),
    "17x15-k7": (1, 17, 15, 7, 2),
    "3x13-k5": (2, 3, 13, 5, 2),
    "6x5-k1": (2, 6, 5, 1, 2),
    "16x16-k5-tiles": (2, 16, 16, 5, 2),
}
# the 5x5 cases keep the bare mode as their id
SHAPE_CASES = [pytest.param(shape, mode,
                            id=mode if shape == "5x5" else f"{shape}-{mode}")
               for shape in SHAPES for mode in MODES]


# (batch, H, W, k, stride): the 5x5 batch-1 case, k = 1 at both strides, a
# strided 3x3 on an odd size, an image smaller than k, the stem's 7x7 stride 2,
# a single pixel and a strided batch-1 case
CONV_SHAPES = {
    "5x5-k3": (1, 5, 5, 3, 1),
    "k1": (2, 4, 5, 1, 1),
    "k1-s2": (2, 5, 4, 1, 2),
    "7x6-k3-s2": (2, 7, 6, 3, 2),
    "2x3-k5": (2, 2, 3, 5, 1),
    "11x9-k7-s2": (2, 11, 9, 7, 2),
    "1x1": (2, 1, 1, 3, 1),
    "batch1-s2": (1, 6, 5, 3, 2),
}


def _owned_bytes(ctx) -> int:
    """Bytes of the distinct arrays that own the memory of ctx's arrays."""
    owners = {}
    for a in ctx:
        if isinstance(a, np.ndarray):
            while a.base is not None:
                a = a.base
            owners[id(a)] = a.nbytes
    return sum(owners.values())


def _largest_per_item(ctx, items: int) -> float:
    """Elements per attention item of the largest array in a nested ctx."""
    if isinstance(ctx, np.ndarray):
        return ctx.size / items
    if isinstance(ctx, (tuple, list)):
        return max((_largest_per_item(c, items) for c in ctx), default=0.0)
    return 0.0


def _traced_peaks_mib(layer, shape):
    """Peak traced allocation above the start of a float32 training forward
    and of its backward, in MiB. numpy reports its buffers to tracemalloc,
    so this counts every temporary a pass allocates."""
    x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        y, ctx = layer.forward(x, training=True)
        forward = tracemalloc.get_traced_memory()[1] - start
        dy = np.ones_like(y)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        layer.backward(dy, ctx)
        backward = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return forward / 2 ** 20, backward / 2 ** 20


def _attn(mode, k=3, heads=2, d_in=4, d_out=8, seed=0):
    return LocalAttention(d_in, d_out, k=k, heads=heads, encoding_mode=mode,
                          rng=np.random.default_rng(seed), dtype=np.float64)


class TestConv2d:
    def test_identity_1x1_kernel_reproduces_input(self):
        layer = Conv2d(3, 3, 1, rng=np.random.default_rng(0), dtype=np.float64)
        layer.weight[0, 0] = np.eye(3)
        x = np.random.default_rng(1).standard_normal((2, 3, 4, 5))
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_all_ones_3x3_kernel_sums_interior_to_9c(self):
        layer = Conv2d(1, 1, 3, rng=np.random.default_rng(0), dtype=np.float64)
        layer.weight[:] = 1.0
        c = 0.7
        y, _ = layer.forward(np.full((1, 1, 5, 5), c))
        np.testing.assert_allclose(y[0, 0, 2, 2], 9 * c, atol=1e-12)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_matches_nested_loop_oracle(self, shape):
        n, h, w, k, stride = CONV_SHAPES[shape]
        rng = np.random.default_rng(2)
        layer = Conv2d(2, 3, k, stride=stride, rng=rng, dtype=np.float64)
        x = rng.standard_normal((n, 2, h, w))
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y, ref.conv2d_reference(x, layer.weight, stride),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_passes_finite_differences(self, shape):
        n, h, w, k, stride = CONV_SHAPES[shape]
        layer = Conv2d(2, 3, k, stride=stride, rng=np.random.default_rng(25),
                       dtype=np.float64)
        report = gradcheck(layer, (n, 2, h, w), tolerance=1e-4, seed=26,
                           name=f"Conv2d {shape}")
        assert report.passed, report.line()

    @pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_outputs_and_gradients_are_contiguous_and_ctx_keeps_no_columns(self, k, stride):
        layer = Conv2d(16, 32, k, stride=stride, rng=np.random.default_rng(27))
        x = np.random.default_rng(28).standard_normal((2, 16, 14, 14)).astype(np.float32)
        y, ctx = layer.forward(x)
        dx, grads = layer.backward(np.ones_like(y), ctx)
        for a in (y, dx, grads["weight"]):
            assert a.flags.c_contiguous, a.strides
        padded = x.itemsize * 2 * 16 * (14 + 2 * (k // 2)) ** 2
        assert _owned_bytes(ctx) <= padded

    def test_strided_output_is_ceil_h_over_s(self):
        layer = Conv2d(2, 2, 3, stride=2, rng=np.random.default_rng(3),
                       dtype=np.float64)
        y, _ = layer.forward(np.zeros((1, 2, 7, 6)))
        assert y.shape == (1, 2, 4, 3)

    def test_strided_matches_oracle(self):
        rng = np.random.default_rng(4)
        layer = Conv2d(3, 4, 5, stride=2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 3, 9, 8))
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y, ref.conv2d_reference(x, layer.weight, 2),
                                   atol=1e-10)

    def test_channel_mismatch_raises(self):
        layer = Conv2d(3, 2, 3, rng=np.random.default_rng(5))
        with pytest.raises(DimensionError):
            layer.forward(np.zeros((1, 4, 5, 5)))


class TestLocalAttention:
    def test_k1_mode_none_is_value_transform(self):
        layer = _attn("none", k=1, heads=2, d_in=4, d_out=4)
        x = np.random.default_rng(6).standard_normal((2, 4, 3, 3))
        y, _ = layer.forward(x)
        want = np.einsum("oi,nihw->nohw", layer.W_V, x)
        np.testing.assert_allclose(y, want, atol=1e-12)

    def test_constant_input_interior_equals_value_transform(self):
        layer = _attn("none", k=3, heads=2, d_in=4, d_out=4)
        x = np.ones((1, 4, 5, 5)) * 0.3
        y, _ = layer.forward(x)
        want = np.einsum("oi,nihw->nohw", layer.W_V, x)
        np.testing.assert_allclose(y[:, :, 2, 2], want[:, :, 2, 2], atol=1e-10)

    @pytest.mark.parametrize("shape,mode", SHAPE_CASES)
    def test_matches_per_pixel_oracle(self, shape, mode):
        n, h, w, k, heads = SHAPES[shape]
        rng = np.random.default_rng(7)
        layer = _attn(mode, k=k, heads=heads, d_in=4, d_out=4 * heads, seed=8)
        x = rng.standard_normal((n, 4, h, w))
        y, _ = layer.forward(x)
        want = ref.local_attention_reference(
            x, layer.W_Q, None if mode == "relative_only" else layer.W_K,
            layer.W_V, getattr(layer, "row_emb", None),
            getattr(layer, "col_emb", None), k=k, heads=heads, mode=mode)
        np.testing.assert_allclose(y, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("shape,mode", SHAPE_CASES)
    def test_passes_finite_differences(self, shape, mode):
        n, h, w, k, heads = SHAPES[shape]
        layer = _attn(mode, k=k, heads=heads, d_in=4, d_out=4 * heads, seed=23)
        report = gradcheck(layer, (n, 4, h, w), tolerance=1e-4, seed=24,
                           name=f"LocalAttention {mode} {shape}")
        assert report.passed, report.line()

    def test_relative_only_allocates_no_key_transform(self):
        layer = _attn("relative_only")
        assert "W_K" not in layer.params
        assert {"W_Q", "W_V", "row_emb", "col_emb"} <= set(layer.params)

    def test_attention_weights_are_convex_at_borders(self):
        layer = _attn("relative", k=5, heads=2, d_in=4, d_out=8)
        x = np.random.default_rng(9).standard_normal((2, 4, 6, 6))
        _, ctx = layer.forward(x)
        attn = layer.window_weights(ctx)
        np.testing.assert_allclose(attn.sum(-1), 1.0, atol=1e-6)
        assert np.all(attn >= 0.0)

    def test_neighborhood_permutation_leaves_output_unchanged(self):
        layer = _attn("none", k=3, heads=2, d_in=4, d_out=4)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 4, 6, 6))
        i = j = 3
        members = [(i - 1 + u, j - 1 + v) for u in range(3) for v in range(3)
                   if (u, v) != (1, 1)]
        x_perm = x.copy()
        order = rng.permutation(len(members))
        for dst, src in enumerate(order):
            x_perm[:, :, members[dst][0], members[dst][1]] = \
                x[:, :, members[src][0], members[src][1]]
        y1, _ = layer.forward(x)
        y2, _ = layer.forward(x_perm)
        assert np.max(np.abs(y1[:, :, i, j] - y2[:, :, i, j])) < 1e-9

    def test_relative_mode_translation_equivariant_in_interior(self):
        layer = _attn("relative", k=3, heads=2, d_in=4, d_out=8)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 4, 10, 10))
        s, half = 2, 1
        y1, _ = layer.forward(x[:, :, :-s, :-s])
        y2, _ = layer.forward(x[:, :, s:, s:])
        lo, hi = s + half, 10 - s - half
        assert np.max(np.abs(y1[:, :, lo:hi, lo:hi]
                             - y2[:, :, lo - s:hi - s, lo - s:hi - s])) < 1e-9

    def test_zero_embedding_tables_reduce_to_content_only(self):
        rel = _attn("relative", seed=12)
        rel.row_emb[:] = 0.0
        rel.col_emb[:] = 0.0
        none = _attn("none", seed=13)
        none.W_Q[:] = rel.W_Q
        none.W_K[:] = rel.W_K
        none.W_V[:] = rel.W_V
        x = np.random.default_rng(14).standard_normal((2, 4, 5, 6))
        y1, _ = rel.forward(x)
        y2, _ = none.forward(x)
        assert np.max(np.abs(y1 - y2)) < 1e-12

    def test_full_extent_window_equals_global_attention(self):
        h, w = 4, 5
        layer = _attn("none", k=2 * max(h, w) - 1, heads=2, d_in=4, d_out=8)
        x = np.random.default_rng(15).standard_normal((2, 4, h, w))
        y, _ = layer.forward(x)
        want = ref.global_attention_reference(x, layer.W_Q, layer.W_K,
                                              layer.W_V, heads=2)
        assert np.max(np.abs(y - want)) < 1e-8

    def test_even_extent_rejected(self):
        with pytest.raises(UnsupportedExtentError):
            _attn("none", k=4)

    def test_odd_head_dim_rejected_for_relative_modes(self):
        with pytest.raises(ConfigurationError):
            _attn("relative", d_in=6, d_out=6, heads=2)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            _attn("none", d_in=5, d_out=8, heads=2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            _attn("sinusoid")

    def test_absolute_mode_adds_signal_before_transforms(self):
        layer = _attn("absolute", k=3, heads=2, d_in=4, d_out=4, seed=16)
        plain = _attn("none", k=3, heads=2, d_in=4, d_out=4, seed=17)
        for name in ("W_Q", "W_K", "W_V"):
            plain.params[name][:] = layer.params[name]
        x = np.random.default_rng(18).standard_normal((1, 4, 5, 5))
        signal = absolute_position_signal(4, 5, 5)
        y1, _ = layer.forward(x)
        y2, _ = plain.forward(x + signal[None])
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_saved_context_holds_no_window_copies(self):
        # the input and each query's softmax max and sum: 0.96 MiB here, not
        # k*k-sized copies of K and V nor the 9.6 MiB of weights (10.34 MiB
        # while the weights were saved)
        layer = LocalAttention(64, 64, k=7, heads=8, encoding_mode="relative",
                               rng=np.random.default_rng(19))
        x = np.random.default_rng(20).standard_normal((1, 64, 56, 56)).astype(np.float32)
        _, ctx = layer.forward(x, training=True)
        assert _owned_bytes(ctx) < 2 * 2 ** 20
        attn = layer.window_weights(ctx)
        assert attn.shape == (1, 8, 56, 56, 49)
        np.testing.assert_allclose(attn.sum(-1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("mode", MODES)
    def test_saved_context_holds_no_weights(self, mode):
        # block_attention's items are n*heads*4*4 blocks of S = 16 queries
        # over T = 8*8 keys; the context keeps the input and 2*S statistics
        # per item, nothing of T*S per item like the weights or logits
        n, h, w, k, heads = SHAPES["16x16-k5-tiles"]
        layer = _attn(mode, k=k, heads=heads, d_in=4, d_out=4 * heads, seed=41)
        x = np.random.default_rng(42).standard_normal((n, 4, h, w))
        _, ctx = layer.forward(x, training=True)
        assert _largest_per_item(ctx, n * heads * 4 * 4) < 8 * 8 * 16

    @pytest.mark.parametrize("mode", MODES)
    def test_outputs_do_not_depend_on_the_tile_size(self, mode, monkeypatch):
        # one item per tile, then every item in one tile: a term or its
        # cotangent sliced at the wrong items would move some bytes
        n, h, w, k, heads = SHAPES["16x16-k5-tiles"]
        rng = np.random.default_rng(43)
        x = rng.standard_normal((n, 4, h, w))
        dy = rng.standard_normal((n, 4 * heads, h, w))
        runs = []
        for tile_bytes in (1, 2 ** 40):
            monkeypatch.setattr(tensorops, "TILE_BYTES", tile_bytes)
            layer = _attn(mode, k=k, heads=heads, d_in=4, d_out=4 * heads, seed=44)
            y, ctx = layer.forward(x, training=True)
            weights = layer.window_weights(ctx)
            dx, grads = layer.backward(dy, ctx)
            runs.append({"y": y, "window_weights": weights, "dx": dx, **grads})
        one, all_ = runs
        assert one.keys() == all_.keys()
        for name in one:
            assert one[name].tobytes() == all_[name].tobytes(), name

    def test_passes_allocate_no_logits_sized_temporary(self):
        # the logits and weights (10 MiB here) exist one tile at a time; the K
        # and V windows (5 MiB each) are the largest temporaries, and
        # backward writes dK and dV over them. Measured 13.8 MiB forward and
        # 16.3 MiB backward; with the weights saved whole it was 22.9 and
        # 23.7 MiB, and with a logits-sized bias and cotangent 39.8 and 37.4
        # MiB.
        layer = LocalAttention(64, 64, k=7, heads=8, rng=np.random.default_rng(37))
        forward, backward = _traced_peaks_mib(layer, (1, 64, 56, 56))
        assert forward < 16.0
        assert backward < 26.0


class TestAbsolutePositionSignal:
    def test_row_and_column_halves_factorize(self):
        d, h, w = 8, 6, 7
        signal = absolute_position_signal(d, h, w)
        assert signal.shape == (d, h, w)
        # first half varies only with row index, second half only with column
        assert np.max(np.abs(signal[: d // 2] - signal[: d // 2, :, :1])) == 0.0
        assert np.max(np.abs(signal[d // 2:] - signal[d // 2:, :1, :])) == 0.0

    def test_matches_per_element_reference(self):
        signal = absolute_position_signal(8, 5, 4)
        want = ref.absolute_position_signal_reference(8, 5, 4)
        np.testing.assert_allclose(signal, want, atol=1e-12)

    def test_odd_channel_count_rejected(self):
        with pytest.raises(ConfigurationError):
            absolute_position_signal(5, 4, 4)


def _stem(seed=0, **kwargs):
    return AttentionStem(3, kwargs.pop("d_out", 8),
                         rng=np.random.default_rng(seed), dtype=np.float64,
                         **kwargs)


def _stem_and_oracle(shape, mixtures=4, heads=4):
    """Inference-mode stem output and the compositional oracle's, on a
    random input of `shape` with random running statistics."""
    rng = np.random.default_rng(20)
    stem = _stem(21, mixtures=mixtures, heads=heads)
    stem.norm.running_mean = rng.standard_normal(8)
    stem.norm.running_var = rng.uniform(0.5, 2.0, 8)
    x = rng.standard_normal(shape)
    y, _ = stem.forward(x, training=False)
    want = ref.stem_attention_reference(
        x, stem.W_Q, stem.W_K, stem.W_V, stem.emb_row, stem.emb_col,
        stem.nu, heads=stem.heads, gamma=stem.norm.gamma,
        beta=stem.norm.beta, running_mean=stem.norm.running_mean,
        running_var=stem.norm.running_var, epsilon=stem.norm.epsilon)
    return y, want


# (input shape, mixtures): one 4x4 block, H != W both ways, batch 1 and 2,
# a single mixture matrix
STEM_EDGE_SHAPES = [
    pytest.param((1, 3, 4, 4), 4, id="4x4-one-block"),
    pytest.param((2, 3, 8, 12), 4, id="8x12-batch2"),
    pytest.param((1, 3, 12, 4), 4, id="12x4-batch1"),
    pytest.param((2, 3, 8, 8), 1, id="8x8-mixtures1"),
]


class TestAttentionStem:
    def test_matches_compositional_oracle(self):
        y, want = _stem_and_oracle((1, 3, 8, 8))
        np.testing.assert_allclose(y, want, atol=1e-8)

    @pytest.mark.parametrize("shape, mixtures", STEM_EDGE_SHAPES)
    def test_matches_compositional_oracle_at_edge_shapes(self, shape, mixtures):
        y, want = _stem_and_oracle(shape, mixtures)
        np.testing.assert_allclose(y, want, atol=1e-8)

    @pytest.mark.parametrize("shape, mixtures", STEM_EDGE_SHAPES)
    def test_gradcheck_at_edge_shapes(self, shape, mixtures):
        report = gradcheck(_stem(30, mixtures=mixtures), shape, tolerance=1e-4, seed=31)
        assert report.passed, report.per_entry

    # the heads share one key set through A_h = W_K,h^T W_Q,h; the oracle
    # projects each head's queries and keys apart
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_compositional_oracle_per_head_count(self, heads):
        y, want = _stem_and_oracle((2, 3, 8, 12), heads=heads)
        np.testing.assert_allclose(y, want, atol=1e-8)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradcheck_per_head_count(self, heads):
        report = gradcheck(_stem(30, heads=heads), (2, 3, 8, 8), tolerance=1e-4, seed=31)
        assert report.passed, report.per_entry

    def test_non_finite_query_weights_raise(self):
        stem = _stem(32)
        stem.W_Q[0, 0] = np.inf
        with pytest.raises(DegenerateGroupError, match="non-finite logits"):
            stem.forward(np.random.default_rng(33).standard_normal((1, 3, 8, 8)))

    def test_non_finite_mixture_logits_raise(self):
        stem = _stem(34)
        stem.nu[1, 0] = np.inf
        with pytest.raises(DegenerateGroupError, match="non-finite logits"):
            stem.mixture_weights()

    def test_singleton_mixture_collapses_to_plain_values(self):
        stem = _stem(22, mixtures=1)
        np.testing.assert_allclose(stem.mixture_weights(), 1.0, atol=1e-12)

    def test_equal_mixture_logits_give_uniform_weights(self):
        stem = _stem(23, mixtures=4)
        stem.nu[:] = stem.nu[0]
        np.testing.assert_allclose(stem.mixture_weights(), 0.25, atol=1e-12)

    def test_mixture_weights_match_direct_formula(self):
        stem = _stem(24, mixtures=4)
        p = stem.mixture_weights()
        for a in range(4):
            for b in range(4):
                want = ref.stem_mixture_weights_reference(
                    stem.emb_row, stem.emb_col, stem.nu, a, b)
                np.testing.assert_allclose(p[a, b], want, atol=1e-10)
        np.testing.assert_allclose(p.sum(-1), 1.0, atol=1e-6)

    def test_constant_image_pools_to_batchnormed_constant(self):
        stem = _stem(25)
        x = np.full((1, 3, 8, 8), 0.4)
        y, _ = stem.forward(x, training=False)
        # uniform attention over identical values makes each block constant,
        # so the pooled value equals the normalized constant per channel
        flat = y.reshape(8, -1)
        assert np.max(np.abs(flat - flat[:, :1])) < 1e-10

    def test_output_is_quarter_resolution(self):
        stem = _stem(26)
        y, _ = stem.forward(np.zeros((2, 3, 16, 12)))
        assert y.shape == (2, 8, 4, 3)

    def test_indivisible_input_raises_padding_error(self):
        with pytest.raises(PaddingError):
            _stem(27).forward(np.zeros((1, 3, 10, 8)))

    def test_saved_context_holds_no_copy_of_q_k_or_v(self):
        # the stem's own context is its input and each query's softmax max
        # and sum; with the norm's x_hat and the pool's argmax that is 14.5
        # MiB at this shape (22.5 MiB while the block input and y were
        # saved, 50.5 MiB while the 32 MiB of weights were). Backward
        # rebuilds the block input and projects q' and V (14 MiB here)
        # again from the 3-channel input rather than keep them.
        stem = AttentionStem(3, 16, rng=np.random.default_rng(35))
        x = np.random.default_rng(36).standard_normal((128, 3, 32, 32)).astype(np.float32)
        _, ctx = stem.forward(x, training=True)
        *own, bn_ctx, pool_ctx = ctx
        assert len(own) == 2 and own[0] is x
        assert _owned_bytes(own + list(bn_ctx) + list(pool_ctx)) < 16 * 2 ** 20
        # nothing of T*S = 16*16 per item of block_attention, one item per
        # image, block and head
        assert _largest_per_item(ctx, 128 * 8 * 8 * 4) < 16 * 16
        # nothing in block layout, (n, hb, wb, ...): not the block input,
        # nor Q, K, V or y
        assert not any(a.shape[:3] == (128, 8, 8) for a in own)
        assert not any(a.shape == (128, 16, 32, 32) for a in own)

    def test_passes_allocate_no_logits_sized_temporary(self):
        # the weights (32 MiB here) exist one tile at a time, and backward
        # writes dk' and dV over a copy of the block input and V. Measured
        # 45.0 MiB forward (the norm and pool temporaries) and 22.8 MiB
        # backward (the rebuilt block input included); 45.0 and 33.1 MiB
        # while each head had its own keys, with y and the block input saved
        # 54.5 and 31.6 MiB, with the weights saved whole 82.5 and 47.3 MiB,
        # and with a second logits-sized copy 97.5 and 108.5 MiB.
        stem = AttentionStem(3, 16, rng=np.random.default_rng(38))
        forward, backward = _traced_peaks_mib(stem, (128, 3, 32, 32))
        assert forward < 48.0
        assert backward < 34.0


def _max_pool_backward_naive(x, dy, window, stride):
    """Each output's gradient goes to the first maximal in-image slot of its
    window in row-major (u, v) order, accumulated in output order."""
    n, c, height, width = x.shape
    h_out, w_out = dy.shape[2:]
    pad_h = max(0, (h_out - 1) * stride + window - height) // 2
    pad_w = max(0, (w_out - 1) * stride + window - width) // 2
    dx = np.zeros_like(x)
    for img in range(n):
        for ch in range(c):
            for i in range(h_out):
                for j in range(w_out):
                    slots = [(i * stride - pad_h + u, j * stride - pad_w + v)
                             for u in range(window) for v in range(window)]
                    slots = [(a, b) for a, b in slots if 0 <= a < height and 0 <= b < width]
                    a, b = max(slots, key=lambda ab: x[img, ch, ab[0], ab[1]])
                    dx[img, ch, a, b] += dy[img, ch, i, j]
    return dx


def _with_neg_inf_channel(x):
    """A copy of x whose channel 0 is all -inf, so its border windows tie
    with the pool's -inf padding."""
    x = x.copy()
    x[:, 0] = -np.inf
    return x


class TestPools:
    def test_max_pool_constant_image(self):
        y, _ = MaxPool(3, 2).forward(np.full((1, 2, 6, 6), 1.5))
        np.testing.assert_array_equal(y, np.full((1, 2, 3, 3), 1.5))

    def test_avg_pool_2x2_arithmetic(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y, _ = AvgPool2x2().forward(x)
        np.testing.assert_allclose(y, [[[[2.5]]]], atol=1e-12)

    def test_max_pool_matches_naive_oracle(self):
        x = np.random.default_rng(30).standard_normal((2, 3, 6, 6))
        y, _ = MaxPool(3, 2).forward(x)
        np.testing.assert_allclose(y, ref.max_pool_reference(x, 3, 2), atol=0)

    @pytest.mark.parametrize("shape, window, stride", [
        pytest.param((2, 3, 8, 8), 4, 4, id="stem-8x8-w4s4"),
        pytest.param((1, 2, 6, 6), 1, 2, id="6x6-w1s2-unread-trailing-row"),
        pytest.param((2, 3, 6, 5), 2, 3, id="6x5-w2s3"),
        pytest.param((2, 2, 5, 7), 5, 2, id="5x7-w5s2"),
        pytest.param((2, 1, 3, 3), 4, 1, id="3x3-w4s1-window-beyond-image"),
        pytest.param((3, 2, 1, 1), 3, 2, id="1x1-w3s2"),
        pytest.param((1, 2, 5, 5), 3, 2, id="5x5-w3s2"),
    ])
    def test_max_pool_matches_naive_oracle_at_edge_shapes(self, shape, window, stride):
        x = np.random.default_rng(30).standard_normal(shape)
        for x in (x, _with_neg_inf_channel(x)):
            y, _ = MaxPool(window, stride).forward(x)
            np.testing.assert_array_equal(y, ref.max_pool_reference(x, window, stride))

    def test_avg_pool_borders_average_valid_elements_only(self):
        x = np.random.default_rng(31).standard_normal((1, 1, 3, 3))
        y, _ = AvgPool2x2().forward(x)
        np.testing.assert_allclose(y, ref.avg_pool_2x2_reference(x), atol=1e-12)
        np.testing.assert_allclose(y[0, 0, 1, 1], x[0, 0, 2, 2], atol=1e-12)

    @pytest.mark.parametrize("shape, window, stride", [
        ((2, 3, 7, 6), 3, 2),
        ((2, 3, 7, 6), 3, 1),
        ((3, 2, 5, 9), 2, 2),
        ((3, 2, 1, 1), 3, 2),
        ((2, 3, 8, 8), 4, 4),
        ((1, 2, 5, 5), 3, 2),
    ])
    @pytest.mark.parametrize("ties", [False, True])
    def test_max_pool_backward_matches_naive_routing(self, shape, window, stride, ties):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(shape)
        if ties:
            x = np.round(x)     # few distinct values, so most windows tie
        dy_shape = shape[:2] + (-(-shape[2] // stride), -(-shape[3] // stride))
        dy = rng.standard_normal(dy_shape)
        pool = MaxPool(window, stride)
        for x in (x, _with_neg_inf_channel(x)):
            dx, grads = pool.backward(dy, pool.forward(x)[1])
            assert grads == {}
            np.testing.assert_array_equal(dx, _max_pool_backward_naive(x, dy, window, stride))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 6), (2, 2, 5, 5), (3, 2, 5, 8), (2, 1, 7, 4),
                                       (3, 2, 1, 1), (2, 2, 1, 7)],
                             ids=["4x6", "5x5", "5x8", "7x4", "1x1", "1x7"])
    def test_avg_pool_forward_and_backward_match_reference(self, shape, dtype):
        rng = np.random.default_rng(37)
        x = rng.standard_normal(shape).astype(dtype)
        pool = AvgPool2x2()
        y, ctx = pool.forward(x)
        tol = 1e-6 if dtype == np.float32 else 1e-14
        assert y.dtype == dtype
        np.testing.assert_allclose(y, ref.avg_pool_2x2_reference(x), rtol=tol, atol=tol)
        # the pool is linear, so dx[i] = <dy, reference(e_i)> over unit inputs e_i
        dy = rng.standard_normal(y.shape).astype(dtype)
        dx, grads = pool.backward(dy, ctx)
        unit = np.zeros(shape)
        want = np.zeros(shape)
        for i in np.ndindex(*shape):
            unit[i] = 1.0
            want[i] = np.sum(dy * ref.avg_pool_2x2_reference(unit))
            unit[i] = 0.0
        assert grads == {} and dx.shape == shape
        np.testing.assert_allclose(dx, want, rtol=tol, atol=tol)

    def test_max_pool_padding_never_wins(self):
        x = np.full((1, 1, 5, 5), -7.0)
        y, _ = MaxPool(3, 2).forward(x)
        np.testing.assert_array_equal(y, np.full((1, 1, 3, 3), -7.0))


class TestBatchNorm:
    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((64, 3, 4, 4))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        bn = BatchNorm2d(3, dtype=np.float64)
        y, _ = bn.forward(x, training=True)
        np.testing.assert_allclose(y, x, atol=1e-4)

    def test_zero_gamma_collapses_to_beta(self):
        bn = BatchNorm2d(2, dtype=np.float64)
        bn.gamma[:] = 0.0
        bn.beta[:] = 5.0
        y, _ = bn.forward(np.random.default_rng(33).standard_normal((4, 2, 3, 3)),
                          training=True)
        np.testing.assert_allclose(y, 5.0, atol=1e-12)

    def test_training_statistics_standardize_batch(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((16, 3, 5, 5)) * 4.0 - 2.0
        y, _ = BatchNorm2d(3, dtype=np.float64).forward(x, training=True)
        assert np.max(np.abs(y.mean(axis=(0, 2, 3)))) < 1e-6
        assert np.max(np.abs(y.var(axis=(0, 2, 3)) - 1.0)) < 1e-4

    def test_running_statistics_update_with_decay(self):
        bn = BatchNorm2d(2, decay=0.9, dtype=np.float64)
        x = np.random.default_rng(35).standard_normal((8, 2, 3, 3)) + 3.0
        bn.forward(x, training=True)
        batch_mean = x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(bn.running_mean, 0.1 * batch_mean, atol=1e-10)
        assert np.all(bn.running_var >= 0.0)

    def test_inference_uses_running_statistics(self):
        bn = BatchNorm2d(2, dtype=np.float64)
        bn.running_mean[:] = 1.0
        bn.running_var[:] = 4.0
        x = np.full((1, 2, 2, 2), 3.0)
        y, _ = bn.forward(x, training=False)
        np.testing.assert_allclose(y, (3.0 - 1.0) / np.sqrt(4.0 + bn.epsilon),
                                   atol=1e-9)

    def test_zero_variance_channel_finite_via_epsilon(self):
        bn = BatchNorm2d(1, dtype=np.float64)
        y, _ = bn.forward(np.full((4, 1, 2, 2), 2.0), training=True)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, 0.0, atol=1e-9)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("shape", [(1, 3, 1, 1), (2, 3, 3, 5), (3, 1, 4, 2)],
                             ids=["batch1-1x1", "3x5", "c1"])
    def test_gradcheck_at_edge_shapes(self, shape, training):
        rng = np.random.default_rng(38)
        c = shape[1]
        bn = BatchNorm2d(c, dtype=np.float64)
        bn.gamma[:] = rng.uniform(0.5, 2.0, c)
        bn.beta[:] = rng.standard_normal(c)
        bn.running_mean[:] = rng.standard_normal(c)
        bn.running_var[:] = rng.uniform(0.5, 2.0, c)
        report = gradcheck(bn, shape, tolerance=1e-4, seed=39, training=training)
        assert report.passed, report.per_entry

    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_strided_input_matches_contiguous_copy(self, training):
        rng = np.random.default_rng(40)
        base = rng.standard_normal((4, 6, 7, 10)) * 2.0 + 1.0
        dy = rng.standard_normal((4, 3, 7, 5))
        view = base[:, ::2, :, 1::2]
        assert not view.flags.c_contiguous
        out = []
        for x in (view, view.copy()):
            bn = BatchNorm2d(3, dtype=np.float64)
            bn.gamma[:] = [0.5, -1.5, 2.0]
            y, ctx = bn.forward(x, training=training)
            dx, grads = bn.backward(dy[:, :, :, ::-1], ctx)
            out.append((y, dx, grads["gamma"], grads["beta"], bn.running_mean, bn.running_var))
        for got, want in zip(*out):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


# Parameter swaps the oracles must tell apart from the layer: W_Q/W_K where
# the mode has content logits, row/column tables where it has relative ones
LOCAL_SWAPS = [("none", "qk"), ("absolute", "qk"), ("relative", "qk"),
               ("relative", "emb"), ("relative_only", "emb")]


class TestReferenceOracles:
    """The oracles keep their power: agreement with the layer at 1e-8 means
    something only if a plausible wiring mistake moves them far off it."""

    @pytest.mark.parametrize("mode,swap", LOCAL_SWAPS, ids=[f"{m}-{s}" for m, s in LOCAL_SWAPS])
    def test_local_attention_oracle_detects_swapped_parameters(self, mode, swap):
        layer = _attn(mode, k=3, heads=2, d_in=4, d_out=8, seed=41)
        x = np.random.default_rng(42).standard_normal((2, 4, 5, 6))
        y, _ = layer.forward(x)
        params = {"w_q": layer.W_Q, "w_k": getattr(layer, "W_K", None),
                  "row_emb": layer.row_emb, "col_emb": layer.col_emb}
        np.testing.assert_allclose(y, ref.local_attention_reference(
            x, w_v=layer.W_V, k=3, heads=2, mode=mode, **params), rtol=0, atol=1e-8)
        a, b = ("w_q", "w_k") if swap == "qk" else ("row_emb", "col_emb")
        params[a], params[b] = params[b], params[a]
        wrong = ref.local_attention_reference(x, w_v=layer.W_V, k=3, heads=2, mode=mode,
                                              **params)
        assert np.max(np.abs(y - wrong)) > 1e-3

    @pytest.mark.parametrize("swap", ["emb", "nu-rows", "qk"])
    def test_stem_oracle_detects_swapped_parameters(self, swap):
        stem = _stem(43)
        x = np.random.default_rng(44).standard_normal((2, 3, 8, 12))
        y, _ = stem.forward(x, training=False)
        params = {"w_q": stem.W_Q, "w_k": stem.W_K, "emb_row": stem.emb_row,
                  "emb_col": stem.emb_col, "nu": stem.nu}
        if swap == "emb":
            params["emb_row"], params["emb_col"] = stem.emb_col, stem.emb_row
        elif swap == "qk":
            # W_Q and W_K swapped transposes each head's A_h
            params["w_q"], params["w_k"] = stem.W_K, stem.W_Q
        else:
            params["nu"] = np.roll(stem.nu, 1, axis=0)
        wrong = ref.stem_attention_reference(
            x, w_v=stem.W_V, heads=stem.heads, gamma=stem.norm.gamma,
            beta=stem.norm.beta, running_mean=stem.norm.running_mean,
            running_var=stem.norm.running_var, epsilon=stem.norm.epsilon, **params)
        assert np.max(np.abs(y - wrong)) > 1e-3

    def test_reference_imports_nothing_from_the_package(self):
        tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported, "no imports parsed"
        assert not any(name.startswith(".") or name.split(".")[0] == "localattn"
                       for name in imported), sorted(imported)
