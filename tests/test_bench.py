"""The benchmark's own tests pass against this checkout: they read the tape's
entries, `Model.forward`'s (y, tape), `Sequential`, `Bottleneck.main`,
`MODEL_CONFIG_KEYS` and `sliding_windows`, so a change that breaks the
benchmark fails here rather than in a later benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           os.path.join("bench", "tests")],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
