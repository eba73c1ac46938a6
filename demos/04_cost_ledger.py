"""
Pricing attention against convolution
=====================================

The ledger walks a model specification and prices every layer with closed
formulas (multiply-accumulate = 2 FLOPs, batch size 1), so full-scale
networks can be compared without building them. Swapping every spatial
convolution for local attention sheds roughly a third of both parameters
and FLOPs at equal depth and width.
"""

from localattn import ModelSpec, cost_parity, ledger

print("totals at 224x224 input:")
print(f"{'model':<28s} {'params (M)':>11s} {'flops (G)':>10s}")
for name, spec in (
    ("conv, 26 layers", ModelSpec(depth=26)),
    ("conv, 38 layers", ModelSpec(depth=38)),
    ("conv, 50 layers", ModelSpec(depth=50)),
    ("attention, 50 layers", ModelSpec(depth=50, groups=("attention",) * 4,
                                       stem="attention_stem", k=7, heads=8,
                                       encoding_mode="relative")),
):
    report = ledger(spec, 224)
    print(f"{name:<28s} {report.total_params / 1e6:>11.2f} "
          f"{report.total_flops / 1e9:>10.2f}")

# Per-pixel parity: how wide can the attention extent grow before one layer
# costs as much as a 3x3 convolution at 128 channels?
parity = cost_parity(128, 3)
print(f"\n3x3 convolution at d=128: {parity.conv_flops_per_pixel} flops/pixel")
for k in (3, 7, 11, 15, 19, 23):
    flops = parity.attention_flops_per_pixel[k]
    print(f"attention k={k:<2d}: {flops:>9d} flops/pixel "
          f"(conv/attn = {parity.ratio(k):.2f})")
print(f"nearest-cost extent: k={parity.best_k}")

# The full per-layer table for one small model.
desk = ModelSpec(block_counts=(1, 1, 1), groups=("attention",) * 3,
                 stem="attention_stem", width_multiplier=0.25, k=5, heads=4,
                 encoding_mode="relative", num_classes=10, input_resolution=32)
print()
print(ledger(desk).table())
