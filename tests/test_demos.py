"""Every demo still runs against the library and prints, byte for byte, the
stdout checked in under tests/demo_stdout: a change to the API that breaks
a demo, or to a rendering that a demo prints, fails here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, os.path.join("demos", demo)],
        cwd=ROOT, capture_output=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, (proc.stdout[-2000:] + proc.stderr[-2000:]).decode()
    with open(os.path.join(ROOT, "tests", "demo_stdout", demo[:-3] + ".txt"), "rb") as f:
        assert proc.stdout == f.read()
