"""Benchmark entry point for localattn.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each call measures one workload in fresh
worker processes (`bench/worker.py`) with BLAS and OpenMP limited to one
thread. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics when `--trace 0`,
the per-layer metrics of a traced run when `--trace 1`. Set-up time is the
median over several cold starts of the CPU time a worker has used when it is
ready for its first step. A traced run also writes its per-layer table to
`bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk_train", "r50_attention", "r50_conv", "verify_suite")
# Cold starts that stop at @ready, besides the measured one: at least
# MIN_PROBES, and more while they have taken less than PROBE_BUDGET_S in all.
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 3, 12, 1.5
DEADLINE_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process whose stdout is read line by line with a deadline."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ, **THREADS)
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                                     stdout=subprocess.PIPE, env=env)
        self._buf = b""

    def readline(self) -> str | None:
        """Next stdout line, or None at end of output."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                if not self._buf:
                    return None
                break
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode("utf-8", "replace")

    def wait_ready(self) -> tuple[float, float]:
        """Wall seconds from launch to the worker's @ready line, and the CPU
        seconds the worker had used by then."""
        while True:
            line = self.readline()
            if line is None:
                raise WorkerError("worker ended before it was ready")
            if line.startswith("@ready "):
                return time.perf_counter() - self.started, float(line.split()[1])
            print(line, flush=True)

    def close(self) -> int:
        if self.proc.poll() is None:
            remaining = max(0.1, self.deadline - time.perf_counter())
            try:
                self.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def measure(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    while not args.trace and (len(setups) < MIN_PROBES or (
            len(setups) < MAX_PROBES and sum(s[0] for s in setups) < PROBE_BUDGET_S)):
        worker = Worker(common + ["--seconds", "0", "--probe"], deadline)
        try:
            setups.append(worker.wait_ready())
        finally:
            code = worker.close()
        if code != 0:
            raise WorkerError(f"set-up probe exited with code {code}")

    worker = Worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    deadline)
    result = None
    try:
        setups.append(worker.wait_ready())
        while (line := worker.readline()) is not None:
            if line.startswith("@result "):
                result = json.loads(line[len("@result "):])
            else:
                print(line, flush=True)
    finally:
        code = worker.close()
    if code != 0 or result is None:
        raise WorkerError(f"worker exited with code {code} and no result")
    result["setup_s"] = setups
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        result = measure(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = {"step_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    metrics = {}
    if args.trace:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        path = os.path.join(BENCH, "out", f"{args.workload}-seed{args.seed}-trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        print(result["trace"]["table"])
        print(f"# trace written to {os.path.relpath(path)}")
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
    else:
        print("# units (wall s, cpu s) " + json.dumps(result["unit_s"]))
        print(f"# wall-clock step_s {result['wall_step_s']:.6g} "
              f"items_per_s {result['wall_items_per_s']:.6g} "
              f"setup_s {statistics.median(s[0] for s in result['setup_s']):.6g}")
        print("# set-ups (wall s, cpu s) " + json.dumps(result["setup_s"]))
        metrics["setup_s"] = {"value": statistics.median(s[1] for s in result["setup_s"]),
                              "unit": "s"}
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": units[name]}
    for name, m in metrics.items():
        print(f"# {args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("gflop_s"):
        return "GFLOP/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
