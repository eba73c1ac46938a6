"""The tracer's bookkeeping: saved-context bytes, self time, rebinding."""

import numpy as np
import pytest

import localattn as la
from localattn import layers, tensorops
from tracer import BufferLedger, Tracer, ctx_bytes, layer_names


def ticking_clock(step=1.0):
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]
    return clock


def test_window_view_of_padded_copy_counts_the_copy_once():
    x = np.zeros((2, 3, 10, 10), dtype=np.float32)
    xp = tensorops.pad_hw(x, 2)
    win = tensorops.sliding_windows(xp, 5)          # (2, 3, 10, 10, 5, 5) view
    assert win.nbytes == 25 * x.nbytes * 1           # the view's nominal size
    assert ctx_bytes((x.shape, win)) == xp.nbytes
    assert ctx_bytes((win, win[:, :, ::2], {"again": xp})) == xp.nbytes


def test_conv_context_counts_its_padded_input():
    conv = la.Conv2d(3, 4, 5, rng=np.random.default_rng(0))
    x = np.ones((2, 3, 10, 10), dtype=np.float32)
    _, ctx = conv.forward(x)
    assert ctx_bytes(ctx) == 2 * 3 * 14 * 14 * 4


def test_buffer_shared_by_two_contexts_counts_once():
    ledger = BufferLedger()
    a = np.ones(100)
    assert ledger.new_bytes((a[:10],)) == 800
    assert ledger.new_bytes([a, np.ones(5)]) == 40
    ledger.reset()
    assert ledger.new_bytes((a,)) == 800


def test_self_time_subtracts_nested_spans():
    tracer = Tracer(clock=ticking_clock())
    # clock reads: outer 1, inner 2 .. 3, outer ends 4
    tracer.span("outer", lambda: tracer.span("inner", lambda: None))
    assert tracer.total_s["outer"] == 3.0
    assert tracer.self_s["inner"] == 1.0
    assert tracer.self_s["outer"] == 2.0


def test_detail_spans_are_not_subtracted_from_their_caller():
    tracer = Tracer(clock=ticking_clock())
    tracer.span("outer", lambda: tracer.detail("tensorops.softmax", lambda: None))
    assert tracer.total_s["tensorops.softmax"] == 1.0
    assert tracer.self_s["outer"] == tracer.total_s["outer"] == 3.0


def test_layer_self_time_subtracts_nested_layer_calls():
    tracer = Tracer(clock=ticking_clock())
    seq = la.Sequential([("a", la.ReLU()), ("b", la.ReLU())])
    tracer.install()
    try:
        seq.forward(np.ones((1, 2, 3, 3)))
    finally:
        tracer.uninstall()
    # Sequential reads 1 .. 6; each ReLU spans one tick inside it
    assert tracer.self_s["layers.elementwise.fwd"] == 2.0
    assert tracer.calls["layers.elementwise.fwd"] == 2
    assert tracer.total_s["layers.block.fwd"] == 5.0
    assert tracer.self_s["layers.block.fwd"] == 3.0


def test_uninstall_restores_every_rebinding():
    originals = (layers.softmax_axis, la.Conv2d.forward, la.train_loop,
                 la.model.Model.forward, la.autodiff.GradTape.backward)
    tracer = Tracer()
    tracer.install()
    assert layers.softmax_axis is not originals[0]
    assert la.Conv2d.forward is not originals[1]
    tracer.uninstall()
    assert (layers.softmax_axis, la.Conv2d.forward, la.train_loop,
            la.model.Model.forward, la.autodiff.GradTape.backward) == originals


def test_traced_training_step_names_layers_and_accounts_for_itself():
    spec = la.ModelSpec(block_counts=(1, 1), groups=("attention", "attention"),
                        stem="attention_stem", width_multiplier=0.125, k=3, heads=2,
                        num_classes=4, input_resolution=16)
    tracer = Tracer()
    tracer.install()
    try:
        model = la.build_model(spec)
        x = np.random.default_rng(0).standard_normal((2, 3, 16, 16)).astype(np.float32)
        logits, tape = model.forward(x, training=True)
        loss, dlogits = la.cross_entropy_smoothed(logits, np.array([0, 1]))
        _, grads = tape.backward(dlogits)
        la.train.nesterov_step(model.params, grads,
                               la.OptimizerState.for_params(model.params), 0.01)
    finally:
        tracer.uninstall()
    tracer.units = 1
    m = tracer.per_unit()
    assert m["layers.local_attention.calls"] == 4
    assert m["layers.attention_stem.calls"] == 2
    assert m["layers.local_attention.ctx_mb"] > 0
    assert m["autodiff.tape_mb"] >= m["layers.local_attention.ctx_mb"]
    assert m["layers.local_attention.gflop_s"] > 0
    assert "group2.block0.main.spatial" in tracer.rows
    assert set(layer_names(model).values()) >= set(tracer.rows)
    inclusive = (m["model.forward_s"] + m["autodiff.backward_s"] + m["train.optimizer_s"]
                 + m["train.loss_s"])
    assert tracer.step_self == pytest.approx(inclusive, rel=1e-9)


def test_ledger_flops_are_priced_once_per_layer():
    spec = la.ModelSpec(block_counts=(1, 1), groups=("attention", "attention"),
                        stem="attention_stem", width_multiplier=0.125, k=3, heads=2,
                        num_classes=4, input_resolution=16)
    report = la.ledger(spec)
    flops = {e.name: e.flops for e in report.entries}
    tracer = Tracer()
    first, second = la.build_model(spec), la.build_model(spec)
    tracer.name_model(first, report)
    tracer.name_model(second, report)
    for model in (first, second):
        stem = dict(model.named_layers)["stem.attn"]
        assert tracer.flops_per_image[stem] == (
            flops["stem.attn"] + flops["stem.attn.norm"] + flops["stem.attn.pool"])
        spatial = model.named_layers[1][1].main.named_layers[3][1]
        assert tracer.flops_per_image[spatial] == flops["group1.block0.main.spatial"]


def test_per_layer_metrics_match_the_benchmark_description():
    import json
    import os
    from run import per_layer_unit
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        described = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    emitted = set(Tracer().per_unit()) | {"bench.trace_overhead_s", "bench.unaccounted_s",
                                          "bench.gemm_gflop_s"}
    assert emitted == set(described)
    assert all(per_layer_unit(name) == unit for name, unit in described.items())
