"""Reverse-mode gradients: tape mechanics and finite-difference checks."""

import numpy as np
import pytest

from localattn.autodiff import GradTape, gradcheck
from localattn.errors import (ConfigurationError, ConsumedTapeError, DimensionError,
                              NonFiniteGradientError)
from localattn.layers import AttentionStem, BatchNorm2d, Conv2d, Linear, LocalAttention, ReLU
from localattn.model import ModelSpec, build_model
from localattn.verify import gradcheck_layers


class TestTapeMechanics:
    def test_linear_chain_half_squared_loss_gradient(self):
        # y = W x with loss 0.5*||y||^2 gives grad(W) = y x^T
        layer = Linear(3, 2, rng=np.random.default_rng(0), dtype=np.float64)
        layer.bias[:] = 0.0
        x = np.random.default_rng(1).standard_normal((4, 3))
        tape = GradTape()
        y, ctx = layer.forward(x)
        tape.record("fc", layer, ctx)
        _, grads = tape.backward(y)
        np.testing.assert_allclose(grads["fc.weight"], y.T @ x, atol=1e-12)

    def test_loss_constant_in_a_parameter_gives_zero_gradient(self):
        layer = Linear(3, 2, rng=np.random.default_rng(2), dtype=np.float64)
        x = np.random.default_rng(3).standard_normal((4, 3))
        tape = GradTape()
        y, ctx = layer.forward(x)
        tape.record("fc", layer, ctx)
        cotangent = np.zeros_like(y)
        cotangent[:, 0] = 1.0  # loss reads only output 0
        _, grads = tape.backward(cotangent)
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
        tape = GradTape()
        y, ctx = layer.forward(np.ones((2, 3)))
        tape.record("act", layer, ctx)
        tape.output_shape = y.shape
        with pytest.raises(DimensionError):
            tape.backward(np.ones((2, 4)))

    def test_nonfinite_gradient_detected_and_named(self):
        layer = Linear(3, 2, rng=np.random.default_rng(5), dtype=np.float64)
        tape = GradTape()
        y, ctx = layer.forward(np.ones((2, 3)))
        tape.record("fc", layer, ctx)
        bad = np.full_like(y, np.nan)
        with pytest.raises(NonFiniteGradientError) as exc:
            tape.backward(bad)
        assert "fc" in str(exc.value)

    def test_backward_consumes_the_tape(self):
        spec = ModelSpec(block_counts=(1,), groups=("attention",), stem="attention_stem",
                         width_multiplier=0.125, k=3, heads=2, num_classes=4,
                         input_resolution=16)
        model = build_model(spec, seed=0, dtype=np.float64)
        logits, tape = model.forward(np.random.default_rng(12).standard_normal((2, 3, 16, 16)),
                                     training=True)
        assert len(tape.entries) == len(model.named_layers)
        stem_ctx, (main_ctxs, shortcut_ctxs, _) = tape.entries[0][2], tape.entries[1][2]
        tape.backward(np.ones_like(logits))
        assert tape.entries == []
        # composites pop their children's contexts too: the block's two
        # branches and the stem's norm and pool
        assert main_ctxs == [] and shortcut_ctxs == []
        assert len(stem_ctx) == 5
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


class TestGradcheck:
    def test_requires_double_precision_parameters(self):
        layer = Conv2d(2, 2, 3, rng=np.random.default_rng(6), dtype=np.float32)
        with pytest.raises(ConfigurationError):
            gradcheck(layer, (1, 2, 4, 4))

    def test_reports_max_relative_error_and_pass(self):
        layer = Linear(3, 2, rng=np.random.default_rng(7), dtype=np.float64)
        report = gradcheck(layer, (2, 3), tolerance=1e-4, seed=0)
        assert report.passed
        assert report.max_rel_error < 1e-6
        assert "pass" in report.line()

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

        report = gradcheck(Broken(), (3, 2), tolerance=1e-4, seed=0)
        assert not report.passed

    def test_leaves_the_callers_running_statistics_unchanged(self):
        bn = BatchNorm2d(3, dtype=np.float64)
        stem = AttentionStem(3, 8, rng=np.random.default_rng(11), dtype=np.float64)
        for layer, norm, shape in ((bn, bn, (3, 3, 4, 4)), (stem, stem.norm, (1, 3, 4, 4))):
            before = norm.running_mean.tobytes() + norm.running_var.tobytes()
            assert gradcheck(layer, shape, seed=0, training=True).passed
            assert norm.running_mean.tobytes() + norm.running_var.tobytes() == before

    @pytest.mark.parametrize("label,layer,shape", gradcheck_layers(seed=0),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_every_layer_type_passes_finite_differences(self, label, layer, shape):
        report = gradcheck(layer, shape, tolerance=1e-4, seed=0, name=label)
        assert report.passed, report.line()

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
