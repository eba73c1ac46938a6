"""Symbolic cost ledger: canonical totals, parity sweep, convention checks."""

import os

import pytest

from localattn.cost import (
    CONVENTION,
    attention_unit_costs,
    conv_flops_per_pixel,
    cost_parity,
    ledger,
)
from localattn.layers import ReLU
from localattn.model import (MODEL_CONFIG_KEYS, Bottleneck, ModelSpec, Sequential, build_model,
                             read_config)

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _attention_r50():
    return ModelSpec(depth=50, groups=("attention",) * 4, stem="attention_stem",
                     k=7, heads=8, encoding_mode="relative")


class TestCanonicalTotals:
    @pytest.mark.parametrize("depth,params,tol", [(26, 13.7e6, 0.02),
                                                  (38, 19.6e6, 0.02),
                                                  (50, 25.6e6, 0.01)])
    def test_baseline_parameter_totals(self, depth, params, tol):
        total = ledger(ModelSpec(depth=depth)).total_params
        assert abs(total - params) / params < tol

    @pytest.mark.parametrize("depth,flops", [(26, 4.7e9), (38, 6.5e9), (50, 8.2e9)])
    def test_baseline_flop_totals_at_224(self, depth, flops):
        total = ledger(ModelSpec(depth=depth), 224).total_flops
        assert abs(total - flops) / flops < 0.05

    def test_attention_resnet50_totals(self):
        report = ledger(_attention_r50(), 224)
        assert abs(report.total_flops - 7.2e9) / 7.2e9 < 0.10
        assert abs(report.total_params - 18.0e6) / 18.0e6 < 0.05

    def test_attention_variant_is_leaner_than_baseline(self):
        conv = ledger(ModelSpec(depth=50), 224)
        attn = ledger(_attention_r50(), 224)
        assert attn.total_flops < conv.total_flops
        assert attn.total_params < conv.total_params


class TestUnitCosts:
    def test_hand_counted_attention_layer(self):
        params, positional, per_pixel = attention_unit_costs(4, 4, 3, 2, "none")
        assert params == 3 * 4 * 4
        assert positional == 0
        # transforms 96 + content logits 72 + aggregation 72 + softmax 90
        assert per_pixel == 96 + 72 + 72 + 90

    def test_hand_counted_conv_per_pixel(self):
        assert conv_flops_per_pixel(4, 4, 3) == 2 * 9 * 16

    def test_relative_adds_one_logit_term(self):
        none_pp = attention_unit_costs(8, 8, 5, 2, "none")[2]
        rel_pp = attention_unit_costs(8, 8, 5, 2, "relative")[2]
        assert rel_pp == none_pp + 2 * 5 * 5 * 8

    def test_absolute_adds_signal_injection(self):
        none_pp = attention_unit_costs(8, 8, 5, 2, "none")[2]
        abs_pp = attention_unit_costs(8, 8, 5, 2, "absolute")[2]
        assert abs_pp == none_pp + 8

    def test_content_free_mode_drops_one_transform(self):
        rel = attention_unit_costs(8, 8, 5, 2, "relative")
        only = attention_unit_costs(8, 8, 5, 2, "relative_only")
        assert only[0] == rel[0] - 8 * 8
        assert only[1] == rel[1]
        assert only[2] == rel[2] - 2 * 8 * 8 - 2 * 5 * 5 * 8

    def test_transform_params_do_not_grow_with_extent(self):
        base = attention_unit_costs(16, 16, 3, 4, "relative")
        for k in (7, 11, 23):
            grown = attention_unit_costs(16, 16, k, 4, "relative")
            assert grown[0] == base[0]
            assert grown[1] == (2 * k - 1) * (16 // 4)

    def test_positional_tables_priced_separately(self):
        report = ledger(_attention_r50())
        assert report.total_positional_params > 0
        assert report.total_params == (report.total_transform_params
                                       + report.total_positional_params)


class TestParity:
    def test_wide_extent_matches_three_by_three_conv(self):
        parity = cost_parity(128, 3)
        assert 0.7 <= parity.ratio(19) <= 1.3

    def test_best_extent_minimizes_cost_gap(self):
        parity = cost_parity(128, 3)
        gaps = {k: abs(pp - parity.conv_flops_per_pixel)
                for k, pp in parity.attention_flops_per_pixel.items()}
        assert gaps[parity.best_k] == min(gaps.values())

    def test_attention_incremental_cost_stays_below_conv(self):
        d = 128
        ks = list(range(3, 27, 2))
        attn = {k: attention_unit_costs(d, d, k, 8, "relative")[2] for k in ks}
        for k_lo, k_hi in zip(ks, ks[1:]):
            conv_step = conv_flops_per_pixel(d, d, k_hi) - conv_flops_per_pixel(d, d, k_lo)
            attn_step = attn[k_hi] - attn[k_lo]
            assert attn_step < conv_step

    def test_ratio_is_conv_over_attention(self):
        parity = cost_parity(64, 3, heads=4)
        k = parity.best_k
        want = parity.conv_flops_per_pixel / parity.attention_flops_per_pixel[k]
        assert parity.ratio(k) == want


class TestLedgerAgainstBuiltModels:
    @pytest.mark.parametrize("spec", [
        ModelSpec(block_counts=(1, 1), groups=("conv", "conv"), stem="conv_stem",
                  width_multiplier=0.25, num_classes=10, input_resolution=32,
                  small_input=True),
        ModelSpec(block_counts=(1, 1, 1), groups=("attention",) * 3,
                  stem="attention_stem", width_multiplier=0.25, k=5, heads=4,
                  encoding_mode="relative", num_classes=10, input_resolution=32),
        ModelSpec(block_counts=(1, 1), groups=("attention", "conv"),
                  stem="attention_stem", width_multiplier=0.125, k=3, heads=2,
                  encoding_mode="relative_only", num_classes=4, input_resolution=16),
        ModelSpec(block_counts=(1,), groups=("attention",), stem="attention_stem",
                  width_multiplier=0.125, k=3, heads=2, encoding_mode="absolute",
                  num_classes=4, input_resolution=16),
    ], ids=["conv", "attention", "mixed_content_free", "absolute"])
    def test_symbolic_counts_match_actual_arrays(self, spec):
        model = build_model(spec, seed=0)
        actual = sum(p.size for p in model.params.values())
        assert ledger(spec).total_params == actual

    def test_flops_scale_with_resolution(self):
        spec = ModelSpec(block_counts=(1, 1, 1), groups=("attention",) * 3,
                         stem="attention_stem", width_multiplier=0.25, k=5,
                         heads=4, encoding_mode="relative", num_classes=10,
                         input_resolution=32)
        small = ledger(spec, 32).total_flops
        large = ledger(spec, 64).total_flops
        # spatial terms quadruple, the classifier head does not
        assert 3.5 < large / small < 4.01

    def test_report_carries_convention_and_records(self):
        report = ledger(ModelSpec(depth=26))
        assert report.convention == CONVENTION
        assert CONVENTION in report.table()
        rows = report.records()
        assert sum(r["params"] + r["positional_params"] for r in rows) == report.total_params
        assert sum(r["flops"] for r in rows) == report.total_flops

    @pytest.mark.parametrize("config", sorted(os.listdir(CONFIGS)))
    def test_entry_names_follow_the_built_model(self, config):
        mapping = read_config(os.path.join(CONFIGS, config))
        spec = ModelSpec.from_mapping({k: v for k, v in mapping.items() if k in MODEL_CONFIG_KEYS})
        names = [e.name for e in ledger(spec).entries]
        runtime = [name for name, layer in build_model(spec).named_modules()
                   if not isinstance(layer, (Sequential, Bottleneck, ReLU))]
        assert names == runtime
