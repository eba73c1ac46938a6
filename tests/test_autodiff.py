"""Reverse-mode gradients: tape mechanics and finite-difference checks."""

import weakref

import numpy as np
import pytest

from localattn.autodiff import GradTape, gradcheck
from localattn.errors import (ConfigurationError, ConsumedTapeError, DimensionError,
                              NonFiniteGradientError)
from localattn.layers import (AttentionStem, BatchNorm2d, Conv2d, Linear, LocalAttention, ReLU,
                              Sequential)
from localattn.model import Bottleneck, ModelSpec, build_model
from localattn.verify import gradcheck_layers


class TestTapeMechanics:
    def test_linear_chain_half_squared_loss_gradient(self):
        # y = W x with loss 0.5*||y||^2 gives grad(W) = y x^T
        layer = Linear(3, 2, rng=np.random.default_rng(0), dtype=np.float64)
        layer.bias[:] = 0.0
        x = np.random.default_rng(1).standard_normal((4, 3))
        y, ctx = layer.forward(x)
        _, grads = GradTape([("fc", layer, ctx)], y.shape).backward(y)
        np.testing.assert_allclose(grads["fc.weight"], y.T @ x, atol=1e-12)

    def test_loss_constant_in_a_parameter_gives_zero_gradient(self):
        layer = Linear(3, 2, rng=np.random.default_rng(2), dtype=np.float64)
        x = np.random.default_rng(3).standard_normal((4, 3))
        y, ctx = layer.forward(x)
        cotangent = np.zeros_like(y)
        cotangent[:, 0] = 1.0  # loss reads only output 0
        _, grads = GradTape([("fc", layer, ctx)], y.shape).backward(cotangent)
        np.testing.assert_array_equal(grads["fc.weight"][1], 0.0)
        assert grads["fc.bias"][1] == 0.0

    def test_every_parameter_appears_exactly_once_with_matching_shape(self):
        spec = ModelSpec(block_counts=(1, 1), groups=("attention", "conv"),
                         stem="attention_stem", width_multiplier=0.125, k=3,
                         heads=2, encoding_mode="relative", num_classes=4,
                         input_resolution=16)
        model = build_model(spec, seed=0, dtype=np.float64)
        x = np.random.default_rng(4).standard_normal((2, 3, 16, 16))
        logits, tape = model.forward(x, training=True)
        _, grads = tape.backward(np.ones_like(logits))
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert g.shape == model.params[name].shape

    def test_cotangent_shape_mismatch_raises(self):
        layer = ReLU()
        y, ctx = layer.forward(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            GradTape([("act", layer, ctx)], y.shape).backward(np.ones((2, 4)))

    def test_nonfinite_gradient_detected_and_named(self):
        layer = Linear(3, 2, rng=np.random.default_rng(5), dtype=np.float64)
        y, ctx = layer.forward(np.ones((2, 3)))
        bad = np.full_like(y, np.nan)
        with pytest.raises(NonFiniteGradientError) as exc:
            GradTape([("fc", layer, ctx)], y.shape).backward(bad)
        assert "fc" in str(exc.value)

    def test_backward_consumes_the_tape(self):
        spec = ModelSpec(block_counts=(1,), groups=("attention",), stem="attention_stem",
                         width_multiplier=0.125, k=3, heads=2, num_classes=4,
                         input_resolution=16)
        model = build_model(spec, seed=0, dtype=np.float64)
        logits, tape = model.forward(np.random.default_rng(12).standard_normal((2, 3, 16, 16)),
                                     training=True)
        assert len(tape.entries) == len(model.named_layers)
        (_, _, stem_tail), (main, shortcut, _) = tape.entries[0][2], tape.entries[1][2]
        tape.backward(np.ones_like(logits))
        assert tape.entries == []
        # composites consume their children's records too: the block's two
        # branches and the stem's norm and pool
        assert main == [] and shortcut == [] and stem_tail == []
        with pytest.raises(ConsumedTapeError, match="an earlier backward consumed it"):
            tape.backward(np.ones_like(logits))

    def test_inference_forward_records_nothing(self):
        spec = ModelSpec(block_counts=(1,), groups=("conv",), width_multiplier=0.125,
                         num_classes=4, input_resolution=16, small_input=True)
        model = build_model(spec, seed=0, dtype=np.float64)
        logits, tape = model.forward(np.ones((1, 3, 16, 16)), training=False)
        assert tape.entries == []
        with pytest.raises(ConsumedTapeError, match="inference forward"):
            tape.backward(np.ones_like(logits))


class _Probe:
    """Identity layer whose context is a fresh object, weakly referenced in
    the shared `refs`. Its backward notes which of those contexts are still
    alive and returns `grads`."""

    params = {}

    def __init__(self, refs, seen, grads=None):
        self.refs, self.seen, self.grads = refs, seen, grads or {}

    def forward(self, x, training=False):
        ctx = type("Ctx", (), {})()
        self.refs.append(weakref.ref(ctx))
        return x, ctx

    def backward(self, dy, ctx):
        self.seen.append([ref() is not None for ref in self.refs])
        return dy, dict(self.grads)


def _probe_chain(n):
    refs, seen = [], []
    return Sequential([(f"p{i}", _Probe(refs, seen)) for i in range(n)]), seen


def _block(d_in, mid, downsample):
    return Bottleneck(d_in, mid, "attention", downsample=downsample, k=3, heads=1,
                      encoding_mode="none", bn_decay=0.9, rng=np.random.default_rng(0),
                      dtype=np.float64)


class TestChainWalk:
    """Sequential.forward is the one forward walk and backward_chain the one
    reverse walk, for the model's tape and for every composite."""

    @pytest.mark.parametrize("through", ["tape", "sequential", "bottleneck"])
    def test_a_popped_context_is_gone_when_the_next_backward_starts(self, through):
        chain, seen = _probe_chain(3)
        x = np.ones((1, 4, 2, 2))
        if through == "bottleneck":
            block = _block(4, 1, downsample=False)              # identity shortcut
            block.main = chain
            y, ctx = block.forward(x, training=True)
            block.backward(np.ones_like(y), ctx)
        else:
            y, records = chain.forward(x, training=True)
            if through == "tape":
                GradTape(records, y.shape).backward(np.ones_like(y))
            else:
                chain.backward(np.ones_like(y), records)
        # when the backward of child j starts, the contexts of the children
        # after it are unreachable, and those of j and before are alive
        assert seen == [[True, True, True], [True, True, False], [True, False, False]]

    @pytest.mark.parametrize("layer", ["bottleneck", "stem"])
    def test_an_inference_forward_keeps_no_child_records(self, layer):
        if layer == "bottleneck":                                 # projection shortcut
            composite, x = _block(2, 2, downsample=True), np.ones((1, 2, 8, 8))
        else:
            composite = AttentionStem(3, 4, heads=2, rng=np.random.default_rng(0),
                                      dtype=np.float64)
            x = np.ones((1, 3, 8, 8))
        y, ctx = composite.forward(x)
        children = ctx[:2] if layer == "bottleneck" else ctx[2:]     # (main, shortcut), (tail,)
        assert all(records == [] for records in children)
        with pytest.raises(ConsumedTapeError, match="inference forward"):
            composite.backward(np.ones_like(y), ctx)

    def test_the_tape_names_the_non_finite_gradient_the_walk_reaches_first(self):
        refs, seen = [], []
        bad = {"ok": np.ones(2), "w": np.array([1.0, np.nan])}
        chain = [(name, _Probe(refs, seen, bad)) for name in ("first", "second")]
        y, records = Sequential(chain).forward(np.ones(3), training=True)
        with pytest.raises(NonFiniteGradientError) as exc:
            GradTape(records, y.shape).backward(np.ones(3))
        assert exc.value.name == "second.w"


class TestGradcheck:
    def test_requires_double_precision_parameters(self):
        layer = Conv2d(2, 2, 3, rng=np.random.default_rng(6), dtype=np.float32)
        with pytest.raises(ConfigurationError):
            gradcheck(layer, (1, 2, 4, 4))

    def test_returns_one_error_per_parameter_and_the_input(self):
        layer = Linear(3, 2, rng=np.random.default_rng(7), dtype=np.float64)
        errors = gradcheck(layer, (2, 3), seed=0)
        assert sorted(errors) == sorted([*layer.params, "input"])
        assert max(errors.values()) < 1e-6, errors

    def test_detects_a_wrong_backward(self):
        class Broken:
            def __init__(self):
                self.weight = np.random.default_rng(8).standard_normal((2, 2))
                self.params = {"weight": self.weight}

            def forward(self, x, training=False):
                return x @ self.weight.T, x

            def backward(self, dy, ctx):
                # deliberately scaled wrong
                return dy @ self.weight * 2.0, {"weight": dy.T @ ctx * 2.0}

        errors = gradcheck(Broken(), (3, 2), seed=0)
        assert errors["weight"] > 1e-4 and errors["input"] > 1e-4, errors

    def test_leaves_the_callers_running_statistics_unchanged(self):
        bn = BatchNorm2d(3, dtype=np.float64)
        stem = AttentionStem(3, 8, rng=np.random.default_rng(11), dtype=np.float64)
        for layer, norm, shape in ((bn, bn, (3, 3, 4, 4)), (stem, stem.norm, (1, 3, 4, 4))):
            before = norm.running_mean.tobytes() + norm.running_var.tobytes()
            errors = gradcheck(layer, shape, seed=0, training=True)
            assert max(errors.values()) <= 1e-4, errors
            assert norm.running_mean.tobytes() + norm.running_var.tobytes() == before

    @pytest.mark.parametrize("label,layer,shape", gradcheck_layers(seed=0),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_every_layer_type_passes_finite_differences(self, label, layer, shape):
        errors = gradcheck(layer, shape, seed=0)
        assert max(errors.values()) <= 1e-4, errors

    def test_masked_border_slots_receive_zero_logit_gradient(self):
        # borders mask out-of-image slots; their softmax weights are exactly
        # zero, so perturbing those logits cannot change the loss
        layer = LocalAttention(4, 4, k=3, heads=2, encoding_mode="none",
                               rng=np.random.default_rng(9), dtype=np.float64)
        x = np.random.default_rng(10).standard_normal((1, 4, 3, 3))
        y, ctx = layer.forward(x)
        attn = layer.window_weights(ctx)
        from localattn.tensorops import window_validity
        invalid = ~window_validity(3, 3, 3).reshape(1, 1, 3, 3, 9)
        assert np.all(attn[np.broadcast_to(invalid, attn.shape)] == 0.0)
