"""Each correctness check passes on the program's output and fails when given
a deliberately wrong one."""

import os

import numpy as np
import pytest

import checks
import localattn as la
from localattn.verify import SuiteResult

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spoil(y, origin, patch):
    bad = y.copy()
    bad[0, -1, origin[0] + patch - 1, origin[1] + patch - 1] += 1e-2 * max(1.0, np.abs(y).max())
    return bad


@pytest.mark.parametrize("corner", [True, False])
def test_attention_patch(corner):
    rng = np.random.default_rng(0)
    layer = la.LocalAttention(8, 8, k=3, heads=2, encoding_mode="relative", rng=rng)
    x = rng.standard_normal((1, 8, 7, 6)).astype(np.float32)
    y, _ = layer.forward(x)
    origin = checks.patch_origin(rng, 7, 6, 2, corner)
    assert checks.attention_patch(layer, x, y, origin, 2)[0]
    assert not checks.attention_patch(layer, x, spoil(y, origin, 2), origin, 2)[0]


@pytest.mark.parametrize("stride,corner", [(1, True), (2, True), (2, False)])
def test_conv_patch(stride, corner):
    rng = np.random.default_rng(1)
    layer = la.Conv2d(3, 4, 3, stride=stride, rng=rng)
    x = rng.standard_normal((1, 3, 9, 8)).astype(np.float32)
    y, _ = layer.forward(x)
    origin = checks.patch_origin(rng, y.shape[2], y.shape[3], 2, corner)
    assert checks.conv_patch(layer, x, y, origin, 2)[0]
    assert not checks.conv_patch(layer, x, spoil(y, origin, 2), origin, 2)[0]


def test_stem_patch():
    rng = np.random.default_rng(2)
    stem = la.AttentionStem(3, 8, rng=rng)
    stem.norm.running_mean[:] = rng.standard_normal(8)
    x = rng.standard_normal((1, 3, 16, 12)).astype(np.float32)
    y, _ = stem.forward(x, training=False)
    origin = checks.patch_origin(rng, 4, 3, 2, False)
    assert checks.stem_patch(stem, x, y, origin, 2)[0]
    assert not checks.stem_patch(stem, x, spoil(y, origin, 2), origin, 2)[0]


def test_gradients():
    params = {"a": np.zeros(3), "b": np.zeros((2, 2))}
    good = {"a": np.ones(3), "b": np.ones((2, 2))}
    assert checks.gradients(params, good, 1.0)[0]
    assert not checks.gradients(params, {"a": np.ones(3)}, 1.0)[0]
    assert not checks.gradients(params, {**good, "c": np.ones(1)}, 1.0)[0]
    assert not checks.gradients(params, {**good, "b": np.ones(4)}, 1.0)[0]
    assert not checks.gradients(params, {**good, "a": np.array([0, np.nan, 0])}, 1.0)[0]
    assert not checks.gradients(params, good, float("inf"))[0]


def tiny_model():
    spec = la.ModelSpec(block_counts=(1, 1), groups=("attention", "attention"),
                        stem="attention_stem", width_multiplier=0.125, k=3, heads=2,
                        num_classes=4, input_resolution=16)
    return la.build_model(spec, seed=0, dtype=np.float64)


def test_directional_derivative(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 16, 16))
    y = np.array([1, 3])
    assert checks.directional_derivative(tiny_model(), x, y, 0.1,
                                         np.random.default_rng(4))[0]
    backward = la.Linear.backward

    def wrong(self, dy, ctx):
        dx, grads = backward(self, dy, ctx)
        return dx, {k: 1.5 * g for k, g in grads.items()}
    monkeypatch.setattr(la.Linear, "backward", wrong)
    assert not checks.directional_derivative(tiny_model(), x, y, 0.1,
                                             np.random.default_rng(4))[0]


def test_loss_falls_and_same_bits():
    assert checks.loss_falls([(1, 2, 0.1, 2.0, 0.1), (2, 4, 0.1, 1.5, 0.2)])[0]
    assert not checks.loss_falls([(1, 2, 0.1, 2.0, 0.1), (2, 4, 0.1, 2.0, 0.2)])[0]
    assert checks.same_bits(0.1 + 0.2, 0.1 + 0.2)[0]
    assert not checks.same_bits(1.0, float(np.nextafter(1.0, 2.0)))[0]


def suites(*flags):
    out = []
    for name, passed in zip(("oracle", "invariant", "gradcheck"), flags):
        suite = SuiteResult(name)
        if passed is not None:
            suite.add_flag("probe", passed)
        out.append(suite)
    return out


def test_verify_suites():
    assert checks.verify_suites(suites(True, True, True))[0]
    assert not checks.verify_suites(suites(True, False, True))[0]
    assert not checks.verify_suites(suites(True, True, None))[0]
    assert not checks.verify_suites(suites(True, True))[0]


@pytest.mark.parametrize("config", ["desk_blocks.cfg", "resnet50_attention.cfg",
                                    "resnet50_conv.cfg"])
def test_ledger_join(config):
    mapping = la.read_config(os.path.join(ROOT, "configs", config))
    spec = la.ModelSpec.from_mapping({k: v for k, v in mapping.items()
                                      if k in la.model.MODEL_CONFIG_KEYS})
    model = la.build_model(spec)
    report = la.ledger(spec)
    assert checks.ledger_join(model, report)[0]
    report.entries[5].name += "x"
    assert not checks.ledger_join(model, report)[0]
    del report.entries[5]
    assert not checks.ledger_join(model, report)[0]
