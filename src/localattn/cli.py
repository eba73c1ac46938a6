"""Command-line entry point.

Subcommands:

  count      symbolic parameter/FLOP ledger for a model specification
  parity     per-pixel cost comparison of convolution vs attention extents
  gradcheck  finite-difference verification of every layer's backward pass
  verify     oracle-equivalence, invariant, and gradient suites
  train      desk-scale training run; writes metrics and checkpoints
  eval       accuracy of a saved checkpoint on a dataset's validation split

Exit status: 0 on success, 1 on any failed check or runtime error, 2 on a
usage error. Every run echoes its fully resolved configuration in the config
file format, so outputs are reproducible given argv and seeds. Timing lines
are prefixed with "# time" so byte-comparisons can filter them out.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .cost import CONVENTION, cost_parity, ledger
from .data import DATA_CONFIG_KEYS, DatasetSource, load_data
from .model import (
    MODEL_CONFIG_KEYS,
    ModelSpec,
    build_model,
    load_checkpoint,
    load_state_into,
    read_config,
)
from .train import TRAIN_CONFIG_KEYS, TrainConfig, evaluate, train_loop
from .verify import gradcheck_suite, run_all

_PRECISIONS = {"f32": np.float32, "f64": np.float64}

# A field's flag is `--` and its config key with dashes, except these; `seed`
# has no flag of its own because the common `--seed` sets it.
_FLAG_NAMES = {"input_resolution": "--resolution", "seed": None}
(_SEED,) = [f for f in TrainConfig.config_fields() if f.key == "seed"]


def _add_flags(parser: argparse.ArgumentParser, *records) -> None:
    """One flag per record field; a flag not given leaves no attribute."""
    for record in records:
        for field in record.config_fields():
            flag = _FLAG_NAMES.get(field.key, "--" + field.key.replace("_", "-"))
            if flag:
                parser.add_argument(flag, dest=field.key, type=field.parse,
                                    default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localattn",
        description="local 2D self-attention as a drop-in replacement for "
                    "spatial convolution")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="plain-text `key = value` configuration file")
    common.add_argument("--seed", type=_SEED.parse, default=argparse.SUPPRESS)
    common.add_argument("--precision", choices=sorted(_PRECISIONS), default=None)
    common.add_argument("--out", default=None,
                        help="where to write outputs (directory for train, "
                             "file for report commands)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common],
                       help="parameter/FLOP ledger for a model spec")
    _add_flags(p, ModelSpec)

    p = sub.add_parser("parity", parents=[common],
                       help="conv vs attention per-pixel cost sweep")
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--conv-k", dest="conv_k", type=int, default=3)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--mode", default="relative")

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference gradient verification")
    p.add_argument("--tolerance", type=float, default=1e-4)

    sub.add_parser("verify", parents=[common],
                   help="oracle, invariant, and gradient suites")

    p = sub.add_parser("train", parents=[common], help="desk-scale training run")
    _add_flags(p, ModelSpec, TrainConfig, DatasetSource)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on the validation split")
    p.add_argument("--checkpoint", required=True)
    _add_flags(p, ModelSpec, DatasetSource)

    return parser


def _resolve(args: argparse.Namespace, *records) -> list:
    """Each record from the config file's values with the given flags on top."""
    mapping = read_config(args.config) if args.config else {}
    unknown = sorted(set(mapping) - MODEL_CONFIG_KEYS - TRAIN_CONFIG_KEYS - DATA_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown configuration keys: {', '.join(unknown)}")
    given = vars(args)
    return [record.from_mapping(mapping, **{f.name: given[f.key]
                                            for f in record.config_fields() if f.key in given})
            for record in records]


def _echo(mapping: dict[str, str]) -> list[str]:
    return ["resolved configuration:"] + [f"  {key} = {mapping[key]}" for key in sorted(mapping)]


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines)
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_count(args) -> int:
    (spec,) = _resolve(args, ModelSpec)
    lines = _echo(spec.to_mapping())
    lines.append(ledger(spec).table())
    _emit(lines, args.out)
    return 0


def _cmd_parity(args) -> int:
    report = cost_parity(args.d, args.conv_k, heads=args.heads, mode=args.mode)
    lines = _echo({"d": str(args.d), "conv_k": str(args.conv_k), "heads": str(args.heads),
                   "mode": args.mode, "convention": CONVENTION})
    lines.append(f"convolution k={args.conv_k}: "
                 f"{report.conv_flops_per_pixel} flops/pixel")
    lines.append(f"{'attention k':>12s} {'flops/pixel':>14s} {'conv/attn':>10s}")
    for k in sorted(report.attention_flops_per_pixel):
        lines.append(f"{k:>12d} {report.attention_flops_per_pixel[k]:>14d} "
                     f"{report.ratio(k):>10.3f}")
    lines.append(f"nearest-cost attention extent: k={report.best_k} "
                 f"(ratio {report.ratio(report.best_k):.3f})")
    if 19 in report.attention_flops_per_pixel:
        lines.append(f"ratio at k=19: {report.ratio(19):.3f}")
    _emit(lines, args.out)
    return 0


def _require_f64(args) -> None:
    if args.precision == "f32":
        raise ValueError("gradient verification requires --precision f64")


def _cmd_gradcheck(args) -> int:
    _require_f64(args)
    start = time.perf_counter()
    suite = gradcheck_suite(seed=getattr(args, "seed", 0), tolerance=args.tolerance)
    lines = suite.lines()
    _emit(lines, args.out)
    print(f"# time gradcheck {time.perf_counter() - start:.1f}s")
    return 0 if suite.passed else 1


def _cmd_verify(args) -> int:
    _require_f64(args)
    start = time.perf_counter()
    timings: dict[str, float] = {}
    suites = run_all(seed=getattr(args, "seed", 0), timings=timings)
    lines: list[str] = []
    for suite in suites:
        lines.extend(suite.lines())
    ok = all(s.passed for s in suites)
    lines.append("verify: all suites pass" if ok else "verify: FAILURES above")
    _emit(lines, args.out)
    for name, seconds in timings.items():
        print(f"# time {name} {seconds:.1f}s")
    print(f"# time verify {time.perf_counter() - start:.1f}s")
    return 0 if ok else 1


def _cmd_train(args) -> int:
    spec, source, config = _resolve(args, ModelSpec, DatasetSource, TrainConfig)
    print("\n".join(_echo({**spec.to_mapping(), **source.to_mapping(),
                           **config.to_mapping()})))
    dtype = _PRECISIONS[args.precision or "f32"]
    start = time.perf_counter()
    history = train_loop(spec, source, config, out_dir=args.out,
                         log=lambda msg: print(msg, flush=True),
                         dtype=dtype)
    elapsed = time.perf_counter() - start
    print("\n".join(history.csv_lines()))
    if history.ema_val_acc is not None:
        print(f"ema_val_acc {history.ema_val_acc:.6g}")
    if history.checkpoint_path:
        print(f"checkpoint {history.checkpoint_path}")
        print(f"ema_checkpoint {history.ema_checkpoint_path}")
    print(f"# time train {elapsed:.1f}s")
    return 0


def _cmd_eval(args) -> int:
    spec, source = _resolve(args, ModelSpec, DatasetSource)
    lines = _echo({**spec.to_mapping(), **source.to_mapping(), "checkpoint": args.checkpoint})
    dtype = _PRECISIONS[args.precision or "f32"]
    model = build_model(spec, seed=getattr(args, "seed", 0), dtype=dtype)
    load_state_into(model, load_checkpoint(args.checkpoint))
    start = time.perf_counter()
    _, (val_x, val_y) = load_data(source)
    acc = evaluate(model, val_x.astype(dtype), val_y)
    lines.append(f"val_acc {acc:.6g}")
    _emit(lines, args.out)
    print(f"# time eval {time.perf_counter() - start:.1f}s")
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "parity": _cmd_parity,
    "gradcheck": _cmd_gradcheck,
    "verify": _cmd_verify,
    "train": _cmd_train,
    "eval": _cmd_eval,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _SEED.check(getattr(args, "seed", None))
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}; try a smaller "
              f"batch size or resolution", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
