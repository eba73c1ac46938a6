"""Schedule, optimizer, loss, data ingestion, the training loop, and float32
agreement with float64."""

import os
import tracemalloc

import numpy as np
import pytest

from localattn.data import (
    RECORD_BYTES,
    DatasetSource,
    load_cifar10,
    load_data,
    read_cifar10_file,
    synthetic_blocks,
    synthetic_separable,
)
from localattn.errors import (
    ConfigurationError,
    DivergenceError,
    IngestionError,
    ScheduleError,
)
from localattn.layers import LocalAttention
from localattn.model import (
    MODEL_CONFIG_KEYS,
    ModelSpec,
    build_model,
    full_state,
    load_checkpoint,
    load_state_into,
    read_config,
)
from localattn.train import (
    METRICS_HEADER,
    OptimizerState,
    Schedule,
    TrainConfig,
    accuracy,
    cross_entropy_smoothed,
    evaluate,
    lr_at,
    nesterov_step,
    train_loop,
    train_step,
)

DESK_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "desk_blocks.cfg")


def _desk_spec():
    mapping = read_config(DESK_CONFIG)
    return ModelSpec.from_mapping({k: v for k, v in mapping.items() if k in MODEL_CONFIG_KEYS})


def _tiny_spec(**kwargs):
    base = dict(block_counts=(1,), groups=("attention",), stem="attention_stem",
                width_multiplier=0.125, k=3, heads=2, encoding_mode="relative",
                num_classes=10, input_resolution=32)
    base.update(kwargs)
    return ModelSpec(**base)


class TestSchedule:
    def test_ramp_reaches_peak_then_decays_to_zero(self):
        s = Schedule(warmup_steps=10, total_steps=100, peak_lr=0.4)
        assert lr_at(s, 0) == 0.0
        assert lr_at(s, 5) == pytest.approx(0.2)
        assert lr_at(s, 10) == pytest.approx(0.4)
        assert lr_at(s, 100) == pytest.approx(0.0, abs=1e-15)

    def test_continuous_at_the_warmup_boundary(self):
        s = Schedule(warmup_steps=1000, total_steps=5000, peak_lr=1.0)
        assert abs(lr_at(s, 999) - lr_at(s, 1000)) < 2e-3

    def test_nonincreasing_after_warmup(self):
        s = Schedule(warmup_steps=5, total_steps=200, peak_lr=0.3)
        values = [lr_at(s, t) for t in range(5, 201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_outside_range_rejected(self):
        s = Schedule(warmup_steps=2, total_steps=10, peak_lr=0.1)
        with pytest.raises(ScheduleError):
            lr_at(s, -1)
        with pytest.raises(ScheduleError):
            lr_at(s, 11)

    @pytest.mark.parametrize("warmup,total", [(0, 10), (10, 10), (12, 10)])
    def test_degenerate_schedules_rejected(self, warmup, total):
        with pytest.raises(ScheduleError):
            Schedule(warmup_steps=warmup, total_steps=total, peak_lr=0.1)


class TestNesterov:
    def test_two_steps_match_hand_recurrence(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        state = OptimizerState.for_params(params, momentum=0.9, ema_decay=0.99)
        nesterov_step(params, grads, state, lr=0.1)
        # v1 = -0.05, w1 = 1 + 0.9*v1 - 0.05
        assert params["w"][0] == pytest.approx(0.905, abs=1e-12)
        nesterov_step(params, grads, state, lr=0.1)
        # v2 = 0.9*(-0.05) - 0.05 = -0.095, w2 = 0.905 + 0.9*v2 - 0.05
        assert params["w"][0] == pytest.approx(0.7695, abs=1e-12)
        assert state.step == 2

    def test_ema_tracks_the_shadow_recurrence(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        state = OptimizerState.for_params(params, momentum=0.9, ema_decay=0.99)
        nesterov_step(params, grads, state, lr=0.1)
        nesterov_step(params, grads, state, lr=0.1)
        want = 0.99 * (0.99 * 1.0 + 0.01 * 0.905) + 0.01 * 0.7695
        assert state.ema["w"][0] == pytest.approx(want, abs=1e-12)

    def test_zero_decay_pins_ema_to_current_params(self):
        params = {"w": np.arange(4.0)}
        grads = {"w": np.ones(4)}
        state = OptimizerState.for_params(params, ema_decay=0.0)
        nesterov_step(params, grads, state, lr=0.2)
        np.testing.assert_array_equal(state.ema["w"], params["w"])


class TestLoss:
    def test_unsmoothed_matches_plain_cross_entropy(self):
        logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        labels = np.array([0, 2])
        loss, _ = cross_entropy_smoothed(logits, labels, smoothing=0.0)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = -np.log(probs[[0, 1], labels]).mean()
        assert loss == pytest.approx(want, abs=1e-12)

    def test_uniform_logits_cost_log_k(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4)
        loss, _ = cross_entropy_smoothed(logits, labels, smoothing=0.1)
        assert loss == pytest.approx(np.log(10), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 5))
        labels = np.array([1, 4, 0])
        _, dlogits = cross_entropy_smoothed(logits, labels, smoothing=0.1)
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                bump = logits.copy()
                bump[i, j] += eps
                up, _ = cross_entropy_smoothed(bump, labels, smoothing=0.1)
                bump[i, j] -= 2 * eps
                down, _ = cross_entropy_smoothed(bump, labels, smoothing=0.1)
                assert dlogits[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-8)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        _, dlogits = cross_entropy_smoothed(rng.standard_normal((6, 4)),
                                            np.array([0, 1, 2, 3, 0, 1]), 0.1)
        np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)

    def test_accuracy_counts_argmax_hits(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert accuracy(logits, np.array([0, 1, 1, 1])) == 0.75


class TestCifarIngestion:
    def _record(self, label, red, green, blue):
        return bytes([label]) + bytes([red] * 1024 + [green] * 1024 + [blue] * 1024)

    def test_records_decode_label_byte_and_planes(self, tmp_path):
        path = tmp_path / "batch.bin"
        blob = b"".join(self._record(i, i * 10, i * 10 + 1, i * 10 + 2)
                        for i in range(10))
        path.write_bytes(blob)
        images, labels = read_cifar10_file(str(path))
        assert images.shape == (10, 3, 32, 32) and images.dtype == np.uint8
        np.testing.assert_array_equal(labels, np.arange(10))
        for i in range(10):
            assert (images[i, 0] == i * 10).all()
            assert (images[i, 1] == i * 10 + 1).all()
            assert (images[i, 2] == i * 10 + 2).all()

    def test_pixel_order_is_row_major_per_plane(self, tmp_path):
        path = tmp_path / "order.bin"
        pixels = bytes(range(256)) * 12      # 3072 bytes, deterministic pattern
        path.write_bytes(bytes([7]) + pixels)
        images, labels = read_cifar10_file(str(path))
        assert labels[0] == 7
        want = np.frombuffer(pixels, dtype=np.uint8).reshape(3, 32, 32)
        np.testing.assert_array_equal(images[0], want)

    def test_misaligned_file_reports_cut_offset(self, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(self._record(1, 0, 0, 0) * 3 + b"\x55")
        with pytest.raises(IngestionError) as err:
            read_cifar10_file(str(path))
        assert err.value.offset == 3 * RECORD_BYTES

    def test_label_out_of_range_reports_record_offset(self, tmp_path):
        path = tmp_path / "label.bin"
        path.write_bytes(self._record(0, 1, 1, 1) + self._record(10, 1, 1, 1))
        with pytest.raises(IngestionError) as err:
            read_cifar10_file(str(path))
        assert err.value.offset == RECORD_BYTES

    def _write_batch_dir(self, tmp_path, per_file=12, files=2):
        rng = np.random.default_rng(9)
        for f in range(files):
            blob = b""
            for i in range(per_file):
                pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
                blob += bytes([int(rng.integers(0, 10))]) + pixels.tobytes()
            (tmp_path / f"data_batch_{f + 1}.bin").write_bytes(blob)
        return str(tmp_path)

    def test_directory_pools_every_batch_file(self, tmp_path):
        root = self._write_batch_dir(tmp_path)
        source = DatasetSource(kind="cifar10_binary", path=root, val_fraction=0.2)
        (train_x, train_y), (val_x, val_y) = load_cifar10(source)
        # 24 records, default limit 24/1.2 = 20 train, 4 validation
        assert train_x.shape == (20, 3, 32, 32) and train_y.shape == (20,)
        assert val_x.shape == (4, 3, 32, 32) and val_y.shape == (4,)

    def test_training_split_is_standardized(self, tmp_path):
        root = self._write_batch_dir(tmp_path, per_file=40)
        source = DatasetSource(kind="cifar10_binary", path=root)
        (train_x, _), _ = load_cifar10(source)
        np.testing.assert_allclose(train_x.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(train_x.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_split_is_seed_deterministic(self, tmp_path):
        root = self._write_batch_dir(tmp_path)
        source = DatasetSource(kind="cifar10_binary", path=root, seed=4, limit=10)
        (ax, ay), (avx, avy) = load_cifar10(source)
        (bx, by), (bvx, bvy) = load_cifar10(source)
        np.testing.assert_array_equal(ax, bx)
        np.testing.assert_array_equal(ay, by)
        np.testing.assert_array_equal(avx, bvx)
        np.testing.assert_array_equal(avy, bvy)

    def test_directory_without_batches_rejected(self, tmp_path):
        source = DatasetSource(kind="cifar10_binary", path=str(tmp_path))
        with pytest.raises(IngestionError, match="data_batch"):
            load_cifar10(source)


class TestSyntheticTasks:
    def test_paired_blob_images_hold_two_blocks(self):
        x, y = synthetic_blocks(64, seed=0)
        assert x.shape == (64, 3, 32, 32)
        assert y.min() >= 0 and y.max() <= 9
        footprint = (x > 0).any(axis=1).sum(axis=(1, 2))
        np.testing.assert_array_equal(footprint, 32)

    def test_paired_blob_classes_cover_both_orders(self):
        _, y = synthetic_blocks(400, seed=1)
        assert set(np.unique(y)) == set(range(10))

    def test_odd_classes_are_rotations_of_even_layouts(self):
        x, y = synthetic_blocks(200, seed=2)
        # rotating an image by 180 degrees yields a layout of the paired class
        rot = x[:, :, ::-1, ::-1]
        blocks_low = np.nonzero((x[0] > 0).any(axis=0))
        rot_low = np.nonzero((rot[0] > 0).any(axis=0))
        assert blocks_low[0].size == rot_low[0].size == 4 * 16 // 2

    def test_brightness_task_separates_class_means(self):
        x, y = synthetic_separable(512, seed=0)
        gap = x[y == 1].mean() - x[y == 0].mean()
        assert gap == pytest.approx(1.0, abs=0.05)

    def test_loader_splits_and_standardizes(self):
        source = DatasetSource(kind="synthetic", task="separable", size=120, seed=3)
        (train_x, train_y), (val_x, val_y) = load_data(source)
        assert len(train_x) == 100 and len(val_x) == 20
        assert train_x.mean() == pytest.approx(0.0, abs=1e-5)

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError):
            load_data(DatasetSource(kind="synthetic", task="stripes"))

    def test_source_validation_and_mapping_round_trip(self):
        with pytest.raises(ConfigurationError):
            DatasetSource(kind="imagefolder")
        with pytest.raises(ConfigurationError):
            DatasetSource(val_fraction=1.5)
        source = DatasetSource(kind="synthetic", task="blocks", size=300, seed=7,
                               limit=200, val_fraction=0.25)
        assert DatasetSource.from_mapping(source.to_mapping()) == source


class TestTrainLoop:
    def _source(self, task="separable", size=120, seed=0):
        return DatasetSource(kind="synthetic", task=task, size=size, seed=seed)

    def test_zero_learning_rate_freezes_the_loss(self):
        spec = _tiny_spec(num_classes=2)
        config = TrainConfig(epochs=3, batch_size=256, peak_lr=0.0,
                             warmup_epochs=0.5, augment=False, seed=0)
        history = train_loop(spec, self._source(size=48), config, dtype=np.float64)
        losses = [row[3] for row in history.rows]
        assert max(losses) - min(losses) < 1e-9

    def test_learns_the_linearly_separable_task(self, tmp_path):
        spec = _tiny_spec(num_classes=2)
        config = TrainConfig(epochs=12, batch_size=64, peak_lr=0.05,
                             warmup_epochs=1.0, augment=False, seed=0)
        history = train_loop(spec, self._source(size=200), config,
                             out_dir=str(tmp_path))
        model = build_model(spec, seed=99)
        load_state_into(model, load_checkpoint(history.checkpoint_path))
        (train_x, train_y), _ = load_data(self._source(size=200))
        assert evaluate(model, train_x, train_y) >= 0.99
        assert history.final_val_acc >= 0.95

    def test_metric_rows_and_csv_are_well_formed(self, tmp_path):
        spec = _tiny_spec(num_classes=2)
        config = TrainConfig(epochs=2, batch_size=64, peak_lr=0.01, augment=False)
        history = train_loop(spec, self._source(size=60), config,
                             out_dir=str(tmp_path))
        lines = history.csv_lines()
        assert lines[0] == METRICS_HEADER == "epoch,step,lr,loss,val_acc"
        assert len(lines) == 1 + config.epochs
        for epoch, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            assert int(cells[0]) == epoch
            float(cells[2]), float(cells[3]), float(cells[4])
        assert int(lines[-1].split(",")[1]) == 2 * 1  # 50 train imgs, batch 64
        csv_path = tmp_path / "metrics.csv"
        assert csv_path.read_text().splitlines() == lines

    def test_equal_seeds_reproduce_the_metric_stream(self):
        spec = _tiny_spec(num_classes=2)
        config = TrainConfig(epochs=2, batch_size=64, peak_lr=0.05, seed=3,
                             augment=True)
        a = train_loop(spec, self._source(size=60, seed=3), config)
        b = train_loop(spec, self._source(size=60, seed=3), config)
        assert a.rows == b.rows
        assert a.ema_val_acc == b.ema_val_acc

    @pytest.mark.parametrize("loss,dlogits,save,message", [
        (float("nan"), 0.0, True,
         r"^non-finite loss at step 0; last finite state saved$"),
        (1.0, float("nan"), True,
         r"^non-finite gradient for parameter 'head.fc.weight' at step 0; "
         r"last finite state saved$"),
        (float("nan"), 0.0, False, r"^non-finite loss at step 0$"),
    ], ids=["loss", "gradient", "loss-without-out-dir"])
    def test_nonfinite_loss_aborts_with_state_saved(self, tmp_path, monkeypatch,
                                                    loss, dlogits, save, message):
        spec = _tiny_spec(num_classes=2)

        def poisoned(logits, labels, smoothing=0.1):
            return loss, np.full_like(logits, dlogits)

        monkeypatch.setattr("localattn.train.cross_entropy_smoothed", poisoned)
        config = TrainConfig(epochs=2, batch_size=64, peak_lr=0.05, augment=False)
        with pytest.raises(DivergenceError, match=message):
            train_loop(spec, self._source(size=60), config,
                       out_dir=str(tmp_path) if save else None)
        if not save:
            return
        saved = load_checkpoint(str(tmp_path / "checkpoint_final.ckpt"))
        reference = full_state(build_model(spec, seed=config.seed))
        assert set(saved) == set(reference)
        for name in reference:
            np.testing.assert_array_equal(saved[name], reference[name])

    def test_non_finite_attention_logits_abort_with_state_saved(self, tmp_path, monkeypatch):
        def overflowing(spec, seed=0, dtype=np.float32):
            model = build_model(spec, seed=seed, dtype=dtype)
            for _, layer in model.named_modules():
                if isinstance(layer, LocalAttention):
                    layer.W_Q[...] = np.inf
            return model

        monkeypatch.setattr("localattn.train.build_model", overflowing)
        config = TrainConfig(epochs=2, batch_size=64, peak_lr=0.05, augment=False)
        with np.errstate(invalid="ignore"), pytest.raises(
                DivergenceError, match=r"^softmax group has non-finite logits"
                                       r".* at step 0; last finite state saved$"):
            train_loop(_tiny_spec(num_classes=2), self._source(size=60), config,
                       out_dir=str(tmp_path))
        assert (tmp_path / "checkpoint_final.ckpt").is_file()

    def test_ema_shadow_evaluation_is_reported(self):
        spec = _tiny_spec(num_classes=2)
        config = TrainConfig(epochs=1, batch_size=32, peak_lr=0.01, augment=False)
        history = train_loop(spec, self._source(size=60), config)
        assert history.ema_val_acc is not None
        assert 0.0 <= history.ema_val_acc <= 1.0

    def test_single_step_run_is_rejected_with_a_clear_message(self):
        spec = _tiny_spec(num_classes=2)
        config = TrainConfig(epochs=1, batch_size=64, peak_lr=0.01, augment=False)
        with pytest.raises(ScheduleError, match="at least 2"):
            train_loop(spec, self._source(size=60), config)

    def test_train_config_mapping_round_trip(self):
        config = TrainConfig(epochs=4, batch_size=32, peak_lr=0.2, momentum=0.8,
                             warmup_epochs=0.5, ema_decay=0.9,
                             label_smoothing=0.05, augment=False, seed=11)
        assert TrainConfig.from_mapping(config.to_mapping()) == config


def _branch_decisions(ctx):
    """ReLU masks (bool) and max-pool routes (int) inside a layer context."""
    if isinstance(ctx, np.ndarray):
        if ctx.dtype.kind in "bi":
            yield ctx
    elif isinstance(ctx, (tuple, list)):
        for item in ctx:
            yield from _branch_decisions(item)


class TestFloat32Agreement:
    """Training runs in float32, while the oracles and gradcheck certify the
    float64 path. The desk model's f32 logits and gradients must stay within
    a stated tolerance of f64 arithmetic on the same weights and images.

    A ReLU input within rounding of zero can land on the other side of the
    kink in f32 (seed 0 has one, 6e-7 in f64 and -1e-6 in f32), which moves
    the whole gradient by about 1e-2. The f64 backward therefore follows the
    f32 pass's ReLU masks and max-pool routes, and the test bounds how many
    of those decisions differ."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_logits_and_gradients_match_float64(self, seed):
        spec = _desk_spec()
        images, labels = synthetic_blocks(16, seed=seed)
        model32 = build_model(spec, seed=seed)
        model64 = build_model(spec, seed=seed, dtype=np.float64)
        load_state_into(model64, full_state(model32))
        logits32, tape32 = model32.forward(images, training=True)
        logits64, tape64 = model64.forward(images.astype(np.float64), training=True)
        assert logits32.dtype == np.float32
        assert np.max(np.abs(logits32 - logits64)) <= 1e-4 * np.max(np.abs(logits64))

        flips = decisions = 0
        for (_, _, ctx32), (_, _, ctx64) in zip(tape32.entries, tape64.entries):
            for d32, d64 in zip(_branch_decisions(ctx32), _branch_decisions(ctx64)):
                flips += int(np.count_nonzero(d32 != d64))
                decisions += d32.size
                d64[...] = d32
        assert decisions > 0 and flips <= 1e-4 * decisions
        grads32 = tape32.backward(cross_entropy_smoothed(logits32, labels)[1])[1]
        grads64 = tape64.backward(cross_entropy_smoothed(logits64, labels)[1])[1]
        # one relative L2 error over the whole gradient set: parameters whose
        # f64 gradient is ~1e-15 hold only rounding noise, so they are not
        # compared one by one
        assert sorted(grads32) == sorted(grads64)
        diff = sum(float(np.sum((grads32[k] - grads64[k]) ** 2)) for k in grads64)
        norm = sum(float(np.sum(grads64[k] ** 2)) for k in grads64)
        assert np.sqrt(diff / norm) <= 1e-3


class TestStepMemory:
    """A training step frees what it allocates: backward pops each context
    once its layer has run, composites pop their children's, and train_step
    lets its logits, tape and gradients die with it. So consecutive desk
    steps (batch 128, f32) peak at the same height above the memory in use
    before the first. Traced at 45.1 MiB. It was 47.0 MiB, in the stem's
    backward, while the stem's heads had keys of their own, 55.0 MiB while
    the stem saved its block input and output, 98.8 MiB with the attention
    weights saved in the contexts, 163 MiB for a step that kept its whole
    tape through backward, and 175.7 MiB for one that also kept the
    previous step's tape alive into the next forward."""

    BOUND_MIB = 52.0

    def test_consecutive_desk_steps_peak_alike_and_within_the_bound(self):
        spec = _desk_spec()
        images, labels = synthetic_blocks(128, seed=0)
        model = build_model(spec, seed=0)
        params = model.params
        state = OptimizerState.for_params(params)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            peaks = []
            for _ in range(2):
                tracemalloc.reset_peak()
                train_step(model, params, state, images, labels, 0.0, 0.1)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1.0, peaks
        assert max(peaks) <= self.BOUND_MIB, peaks


class TestEvaluateMemory:
    """evaluate runs at the training batch size by default, and an inference
    forward keeps no weights: 256 desk images (f32) peak at 45.0 MiB traced
    above the memory in use before. While the stem kept its output until its
    norm and pool had run it was 54.5 MiB, and at batch 256 with the
    attention weights kept 165.0 MiB."""

    BOUND_MIB = 52.0

    def test_desk_evaluate_peak_within_the_bound(self):
        model = build_model(_desk_spec(), seed=0)
        images, labels = synthetic_blocks(256, seed=1)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            evaluate(model, images, labels)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= self.BOUND_MIB, peak
