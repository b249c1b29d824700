"""Every benchmark op still prints the same line: the JSON line that
`perfbench/harness.run_api` renders (or the error it raises) for each op of
the three workloads at seeds 1-3 is digested into tests/api_lines.txt, one
record `workload seed op sha256[:16]` per op.

A change that means to alter a render rewrites the file and lists the
changed ops in CHANGES.md:

    python3 tests/test_api_lines.py > tests/api_lines.txt
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, "tests", "api_lines.txt")
SEEDS = (1, 2, 3)


def api_records():
    """One `workload seed op digest` record per op."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import harness
    import workloads

    pkg = harness.load_package()
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.generate(workload, seed):
                try:
                    line = harness.run_api(op, pkg)[0]
                except Exception as exc:
                    line = f"{type(exc).__name__}: {exc}"
                digest = hashlib.sha256(line.encode()).hexdigest()[:16]
                yield f"{workload} {seed} {op.id} {digest}"


def test_api_lines_are_unchanged():
    proc = subprocess.run(
        [sys.executable, os.path.join("tests", "test_api_lines.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(RECORDS) as f:
        expected = f.read().splitlines()
    got = proc.stdout.splitlines()
    changed = [e.rsplit(" ", 1)[0] for e, g in zip(expected, got) if e != g]
    assert not changed, f"{len(changed)} ops changed, first: {changed[:5]}"
    assert len(got) == len(expected)


if __name__ == "__main__":
    for record in api_records():
        print(record)
