"""Acceptance gate: one test per stated claim, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. The desk-scale learning tests train real models and together take
about ten minutes; everything else finishes in seconds.

The CIFAR-10 leg needs the binary batches on disk (directory of
data_batch_*.bin files, located via $CIFAR10_DIR or ./data/cifar-10-batches-bin).
Without them it reports a skip naming the missing path; the synthetic echo of
the same learning-signal claim always runs.
"""

import dataclasses
import glob
import os
import subprocess
import sys
import time

import pytest

from localattn.cost import (
    attention_unit_costs,
    conv_flops_per_pixel,
    cost_parity,
    ledger,
)
from localattn.data import DATA_CONFIG_KEYS, DatasetSource
from localattn.model import MODEL_CONFIG_KEYS, ModelSpec, read_config
from localattn.train import TRAIN_CONFIG_KEYS, TrainConfig, train_loop
from localattn.verify import gradcheck_layers, gradcheck_suite, invariant_suite, oracle_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CIFAR_DIR = os.environ.get("CIFAR10_DIR",
                           os.path.join(ROOT, "data", "cifar-10-batches-bin"))
HAS_CIFAR = bool(glob.glob(os.path.join(CIFAR_DIR, "data_batch_*.bin")))


def _config_mapping(name: str) -> dict[str, str]:
    return read_config(os.path.join(ROOT, "configs", name))


def _desk_run(config_name: str, mode: str, seed: int, **source_overrides) -> float:
    """Final validation accuracy of one training run from a shipped config."""
    m = _config_mapping(config_name)
    spec = ModelSpec.from_mapping(
        {**{k: v for k, v in m.items() if k in MODEL_CONFIG_KEYS},
         "encoding_mode": mode})
    source = DatasetSource.from_mapping(
        {k: v for k, v in m.items() if k in DATA_CONFIG_KEYS})
    source = dataclasses.replace(source, seed=seed, **source_overrides)
    config = TrainConfig.from_mapping(
        {k: v for k, v in m.items() if k in TRAIN_CONFIG_KEYS})
    config = dataclasses.replace(config, seed=seed)
    return train_loop(spec, source, config).final_val_acc


def test_criterion_1_parameter_count_reproduction():
    for depth, want, tol in ((26, 13.7e6, 0.02), (38, 19.6e6, 0.02),
                             (50, 25.6e6, 0.01)):
        got = ledger(ModelSpec(depth=depth)).total_params
        assert abs(got - want) / want < tol, f"depth {depth}: {got} vs {want}"


def test_criterion_2_flop_reproduction():
    for depth, want in ((26, 4.7e9), (38, 6.5e9), (50, 8.2e9)):
        got = ledger(ModelSpec(depth=depth), 224).total_flops
        assert abs(got - want) / want < 0.05, f"depth {depth}: {got} vs {want}"
    attn = ModelSpec(depth=50, groups=("attention",) * 4, stem="attention_stem",
                     k=7, heads=8, encoding_mode="relative")
    report = ledger(attn, 224)
    assert abs(report.total_flops - 7.2e9) / 7.2e9 < 0.10, report.total_flops
    assert abs(report.total_params - 18.0e6) / 18.0e6 < 0.05, report.total_params


def test_criterion_3_cost_parity():
    parity = cost_parity(128, 3)
    assert 0.7 <= parity.ratio(19) <= 1.3, parity.ratio(19)
    ks = list(range(3, 27, 2))
    for k_lo, k_hi in zip(ks, ks[1:]):
        conv_step = (conv_flops_per_pixel(128, 128, k_hi)
                     - conv_flops_per_pixel(128, 128, k_lo))
        attn_step = (attention_unit_costs(128, 128, k_hi, 8, "relative")[2]
                     - attention_unit_costs(128, 128, k_lo, 8, "relative")[2])
        assert attn_step < conv_step, f"extent {k_lo}->{k_hi}"


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    suite = oracle_suite(seed=0)
    elapsed = time.perf_counter() - start
    failures = [c.line() for c in suite.checks if not c.passed]
    assert suite.passed, "\n".join(failures)
    counts = next(c for c in suite.checks if "50 instances" in c.label)
    assert counts.passed, counts.detail
    assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_5_gradient_verification():
    start = time.perf_counter()
    suite = gradcheck_suite(seed=0, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    failures = [c.line() for c in suite.checks if not c.passed]
    assert suite.passed, "\n".join(failures)
    labels = " | ".join(label for label, _, _ in gradcheck_layers(seed=0))
    for required in ("conv2d", "local_attention none", "local_attention absolute",
                     "local_attention relative", "local_attention relative_only",
                     "attention stem", "batch norm", "max pool", "avg pool",
                     "relu", "global avg pool", "linear", "bottleneck"):
        assert required in labels, required
    assert elapsed < 300.0, f"{elapsed:.1f}s"


def test_criterion_6_structural_invariants():
    suite = invariant_suite(seed=0)
    failures = [c.line() for c in suite.checks if not c.passed]
    assert suite.passed, "\n".join(failures)
    covered = " ".join(c.label for c in suite.checks)
    for topic in ("sum to one", "permut", "translation", "zero", "mixture"):
        assert topic in covered, topic


@pytest.mark.skipif(not HAS_CIFAR, reason=(
    f"CIFAR-10 binary batches not found at {CIFAR_DIR} "
    f"(set CIFAR10_DIR to a directory of data_batch_*.bin files)"))
def test_criterion_7_desk_scale_learning_cifar10():
    fixed_seed = _desk_run("desk_cifar.cfg", "relative", 0, path=CIFAR_DIR)
    assert fixed_seed > 0.35, fixed_seed
    wins = 0
    outcomes = [f"seed 0: relative={fixed_seed:.3f}"]
    for seed in (0, 1, 2):
        rel = fixed_seed if seed == 0 else _desk_run(
            "desk_cifar.cfg", "relative", seed, path=CIFAR_DIR)
        none = _desk_run("desk_cifar.cfg", "none", seed, path=CIFAR_DIR)
        outcomes.append(f"seed {seed}: relative={rel:.3f} none={none:.3f}")
        wins += rel > none
    assert wins >= 2, "; ".join(outcomes)


def test_criterion_7_desk_scale_learning_synthetic_echo():
    # Same claim, data that ships with the repository: ten classes whose
    # within-family pairs differ only by a 180-degree rotation, so encoding
    # none is provably capped near 50% while relative encoding can learn the
    # ordering bit.
    wins = 0
    outcomes = []
    fixed_seed = None
    for seed in (0, 1, 2):
        rel = _desk_run("desk_blocks.cfg", "relative", seed)
        none = _desk_run("desk_blocks.cfg", "none", seed)
        outcomes.append(f"seed {seed}: relative={rel:.3f} none={none:.3f}")
        wins += rel > none
        if seed == 0:
            fixed_seed = rel
    assert fixed_seed > 0.60, "; ".join(outcomes)
    assert wins >= 2, "; ".join(outcomes)


def test_criterion_8_determinism(tmp_path):
    def invoke(args):
        proc = subprocess.run([sys.executable, "-m", "localattn.cli"] + args,
                              capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        return [line for line in proc.stdout.splitlines()
                if not line.startswith("# time")]

    assert invoke(["verify", "--seed", "0"]) == invoke(["verify", "--seed", "0"])

    train_args = ["train", "--seed", "3",
                  "--block-counts", "1", "--groups", "attention",
                  "--stem", "attention_stem", "--width-multiplier", "0.125",
                  "--k", "3", "--heads", "2", "--encoding-mode", "relative",
                  "--num-classes", "2", "--resolution", "32",
                  "--data-kind", "synthetic", "--data-task", "separable",
                  "--data-size", "60", "--epochs", "2", "--batch-size", "32",
                  "--peak-lr", "0.05", "--augment", "true"]
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    out_a = invoke(train_args + ["--out", a_dir])
    out_b = invoke(train_args + ["--out", b_dir])
    drop = lambda lines: [l for l in lines if not l.startswith(("checkpoint", "ema_checkpoint"))]
    assert drop(out_a) == drop(out_b)
    with open(os.path.join(a_dir, "metrics.csv"), "rb") as fh:
        metrics_a = fh.read()
    with open(os.path.join(b_dir, "metrics.csv"), "rb") as fh:
        metrics_b = fh.read()
    assert metrics_a == metrics_b
    with open(os.path.join(a_dir, "checkpoint_final.ckpt"), "rb") as fh:
        ckpt_a = fh.read()
    with open(os.path.join(b_dir, "checkpoint_final.ckpt"), "rb") as fh:
        ckpt_b = fh.read()
    assert ckpt_a == ckpt_b
