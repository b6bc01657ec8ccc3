"""The benchmark's own self-test, run at tiny sizes.

It checks that every workload still runs traced and untraced, that the
tracer still finds each traced function bound by name, and that every
metric BENCHMARK.json names is printed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
