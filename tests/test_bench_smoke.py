"""The benchmark harness still runs against the library: a change that
breaks what perfbench/ uses fails here rather than only in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
