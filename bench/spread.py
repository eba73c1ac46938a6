"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workloads desk_train,r50_conv --seeds 1-10 --seconds 15

Runs `bench/run.py` once per workload and seed, one after another, and
prints each metric's median, quartiles and spread (interquartile range over
median, from `statistics.quantiles(values, n=4)`), with the share of failed
operations. Add `--trace 1` to summarise the per-layer metrics of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", default=15, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--log", help="append every run's output lines to this JSONL file")
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            took = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if args.log:
                with open(args.log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, "run_s": took,
                                         "comments": [l for l in lines if l.startswith("#")],
                                         "result": result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: a check failed\n{proc.stdout[-3000:]}")
                return 1
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({took:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
        print(f"{workload}: failed share {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}  (n={len(vals)})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
