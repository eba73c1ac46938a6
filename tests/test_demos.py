"""The fast narrative demos (01-06) run to completion from the checkout root."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("number", ["01", "02", "03", "04", "05", "06"])
def test_demo_runs(number):
    demo = next(name for name in os.listdir(os.path.join(ROOT, "demos"))
                if name.startswith(number + "_"))
    src = os.path.join(ROOT, "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run([sys.executable, os.path.join("demos", demo)],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
