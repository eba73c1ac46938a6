"""Model assembly, configuration round trips, checkpoint format."""

import struct

import numpy as np
import pytest

from localattn.errors import CheckpointError, ConfigurationError, ResolutionError
from localattn.layers import AvgPool2x2, Conv2d, LocalAttention
from localattn.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Bottleneck,
    ModelSpec,
    batchnorm_state,
    build_model,
    full_state,
    load_checkpoint,
    load_state_into,
    parse_config_text,
    read_config,
    save_checkpoint,
)


def _desk_spec(**kwargs):
    base = dict(block_counts=(1, 1), groups=("attention", "attention"),
                stem="attention_stem", width_multiplier=0.125, k=3, heads=2,
                encoding_mode="relative", num_classes=4, input_resolution=16)
    base.update(kwargs)
    return ModelSpec(**base)


class TestModelSpec:
    @pytest.mark.parametrize("depth,counts", [(50, (3, 4, 6, 3)),
                                              (38, (2, 3, 5, 2)),
                                              (26, (1, 2, 4, 1))])
    def test_canonical_depths_map_to_block_counts(self, depth, counts):
        assert ModelSpec(depth=depth).block_counts == counts

    def test_unknown_depth_without_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(depth=44)

    def test_explicit_block_counts_override_depth(self):
        assert ModelSpec(depth=50, block_counts=(1, 1, 1),
                         groups=("conv",) * 3).block_counts == (1, 1, 1)

    def test_more_than_four_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(block_counts=(1,) * 5, groups=("conv",) * 5)

    def test_group_count_must_match_block_counts(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(block_counts=(1, 1), groups=("conv",))

    def test_unknown_group_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(block_counts=(1,), groups=("dense",))

    def test_widths_round_to_head_multiples(self):
        spec = ModelSpec(block_counts=(1, 1), groups=("attention",) * 2,
                         width_multiplier=0.1, heads=8, encoding_mode="relative")
        # relative modes need d_head even, so widths snap to 2*heads = 16
        assert all(w % 16 == 0 and w > 0 for w in spec.widths)

    def test_full_width_matches_standard_resnet(self):
        assert ModelSpec(depth=50).widths == (64, 128, 256, 512)

    def test_downsample_factor_counts_stem_and_groups(self):
        assert ModelSpec(depth=50).downsample_factor == 32
        assert _desk_spec().downsample_factor == 8

    def test_small_input_conv_stem_halves_stem_downsample(self):
        spec = ModelSpec(block_counts=(1, 1), groups=("conv", "conv"),
                         stem="conv_stem", small_input=True)
        assert spec.downsample_factor == 4

    def test_mapping_round_trip(self):
        spec = _desk_spec()
        again = ModelSpec.from_mapping(spec.to_mapping())
        assert again == spec


class TestConfigFormat:
    def test_parse_ignores_comments_and_blanks(self):
        text = "\n# full line comment\nk = 5\n\nheads = 4  # trailing\n"
        assert parse_config_text(text) == {"k": "5", "heads": "4"}

    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "model.cfg")
        spec = _desk_spec()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in spec.to_mapping().items())
        assert ModelSpec.from_mapping(read_config(path)) == spec

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("k 5")


class TestBuildAndForward:
    def test_forward_produces_logit_rows(self):
        model = build_model(_desk_spec(), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 3, 16, 16)).astype(np.float32)
        logits, tape = model.forward(x, training=True)
        assert logits.shape == (2, 4)
        assert tape.entries

    def test_indivisible_resolution_rejected(self):
        model = build_model(_desk_spec(), seed=0)
        with pytest.raises(ResolutionError):
            model.forward(np.zeros((1, 3, 20, 20), dtype=np.float32))

    def test_seeded_builds_are_identical(self):
        a = build_model(_desk_spec(), seed=3)
        b = build_model(_desk_spec(), seed=3)
        for name, arr in a.params.items():
            np.testing.assert_array_equal(arr, b.params[name])

    def test_census_counts_spatial_kinds(self):
        census = build_model(_desk_spec(), seed=0).census()
        assert census["attention"] == 2
        assert census["spatial_conv"] == 0
        assert census["attention_stem"] == 1
        conv = build_model(ModelSpec(depth=26, num_classes=10), seed=0).census()
        assert conv["attention"] == 0
        assert conv["spatial_conv"] == sum((1, 2, 4, 1))
        assert conv["conv_stem"] == 1

    def test_attention_downsampling_pools_after_attention(self):
        block = Bottleneck(8, 4, "attention", downsample=True, k=3, heads=2,
                           encoding_mode="relative", bn_decay=0.9,
                           rng=np.random.default_rng(0), dtype=np.float64)
        kinds = [type(layer) for _, layer in block.main.named_layers]
        assert LocalAttention in kinds
        assert AvgPool2x2 in kinds
        assert kinds.index(AvgPool2x2) == kinds.index(LocalAttention) + 1
        shortcut_kinds = [type(layer) for _, layer in block.shortcut.named_layers]
        assert shortcut_kinds[0] is AvgPool2x2

    def test_conv_downsampling_strides_the_spatial_conv(self):
        block = Bottleneck(8, 4, "conv", downsample=True, k=3, heads=2,
                           encoding_mode="none", bn_decay=0.9,
                           rng=np.random.default_rng(0), dtype=np.float64)
        spatial = [l for _, l in block.main.named_layers
                   if isinstance(l, Conv2d) and l.k > 1]
        assert len(spatial) == 1 and spatial[0].stride == 2
        proj = [l for _, l in block.shortcut.named_layers if isinstance(l, Conv2d)]
        assert len(proj) == 1 and proj[0].stride == 2

    def test_residual_halves_resolution_once_per_downsampling_group(self):
        model = build_model(_desk_spec(), seed=0)
        x = np.zeros((1, 3, 16, 16), dtype=np.float32)
        y, _ = model.forward(x)
        assert y.shape == (1, 4)
        # stem /4 then one downsampling group: 16 -> 4 -> 2
        assert model.spec.downsample_factor == 8


class TestCheckpointFormat:
    def test_round_trip_preserves_values_and_dtypes(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        rng = np.random.default_rng(1)
        arrays = {
            "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
            "b.table": rng.standard_normal((2, 2, 2)),
            "c.scalar_row": rng.standard_normal(5).astype(np.float32),
        }
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            np.testing.assert_array_equal(loaded[name], arr)

    def test_layout_is_little_endian_manifest_then_raw_bytes(self, tmp_path):
        path = str(tmp_path / "one.ckpt")
        value = np.array([[1.5, -2.0]], dtype=np.float32)
        save_checkpoint(path, {"w": value})
        blob = open(path, "rb").read()
        name = b"w"
        want = (CHECKPOINT_MAGIC
                + struct.pack("<II", CHECKPOINT_VERSION, 1)
                + struct.pack("<H", len(name)) + name
                + struct.pack("<BB", 0, 2)
                + struct.pack("<2I", 1, 2)
                + value.tobytes())
        assert blob == want

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "vers.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 99, 0))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.ckpt")
        save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)})
        blob = open(path, "rb").read()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(cut))

    def test_non_utf8_name_rejected_with_its_offset(self, tmp_path):
        path = str(tmp_path / "name.ckpt")
        save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
        blob = bytearray(open(path, "rb").read())
        name_at = len(CHECKPOINT_MAGIC) + 8 + 2         # magic, version and count, name length
        assert blob[name_at:name_at + 1] == b"w"
        blob[name_at] = 0xFF
        bad = tmp_path / "bad_name.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"not UTF-8 at byte offset {name_at}"):
            load_checkpoint(str(bad))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "trail.ckpt")
        save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
        blob = open(path, "rb").read()
        fat = tmp_path / "fat.ckpt"
        fat.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(fat))


class TestModelState:
    def test_full_state_covers_params_and_running_stats(self):
        model = build_model(_desk_spec(), seed=0)
        state = full_state(model)
        assert set(model.params) <= set(state)
        bn = batchnorm_state(model)
        assert bn and all(name in state for name in bn)
        assert all(name.endswith(("running_mean", "running_var")) for name in bn)

    def test_state_round_trip_restores_model_exactly(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        model = build_model(_desk_spec(), seed=5)
        x = np.random.default_rng(6).standard_normal((2, 3, 16, 16)).astype(np.float32)
        model.forward(x, training=True)  # move the running stats
        before, _ = model.forward(x, training=False)
        save_checkpoint(path, full_state(model))

        fresh = build_model(_desk_spec(), seed=99)
        load_state_into(fresh, load_checkpoint(path))
        after, _ = fresh.forward(x, training=False)
        np.testing.assert_array_equal(before, after)

    def test_missing_entry_rejected(self, tmp_path):
        model = build_model(_desk_spec(), seed=0)
        state = dict(full_state(model))
        state.pop(sorted(state)[0])
        with pytest.raises(CheckpointError, match="missing"):
            load_state_into(model, state)

    def test_shape_mismatch_rejected(self):
        model = build_model(_desk_spec(), seed=0)
        state = {k: v.copy() for k, v in full_state(model).items()}
        first = sorted(state)[0]
        state[first] = np.zeros((1, 1), dtype=state[first].dtype)
        with pytest.raises(CheckpointError, match="shape"):
            load_state_into(model, state)
