"""Every benchmark op still prints the same line: the JSON line that
`perfbench/harness.run_api` renders (or the error it raises) for each op of
the three workloads at seeds 1-3 is digested into tests/api_lines.txt, one
record `workload seed op sha256[:16]` per op.  Each of those results is
also checked against the op's independent reference (perfbench's
`run.check_outputs`), so a digest carries a value the reference accepts.

A change that means to alter a render rewrites the file and lists the
changed ops in CHANGES.md:

    python3 tests/test_api_lines.py > tests/api_lines.txt
"""

import functools
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, "tests", "api_lines.txt")
SEEDS = (1, 2, 3)
# ops whose reference disagrees through a documented defect (ROADMAP): a
# dependent bound whose inner range reverses, and the oracle's tail bound
# with a degree >= 2 argument
KNOWN_DEFECTS = {
    "unit_ball": set(),
    "cell_sums": {"cs102", "cs103", "cs104", "cs105", "cs106"},
    "residue_scan": {"rs103"},
}


def _perfbench():
    """perfbench's harness, run and workloads modules."""
    path = os.path.join(ROOT, "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import harness
    import run
    import workloads

    return harness, run, workloads


@functools.lru_cache(maxsize=None)
def api_outputs(workload, seed):
    """The ops of one workload and seed, and (line, result) for each; an op
    that raises has the line None and the error as its result.  Cached, so
    the digest test and the reference test share one pass."""
    harness, run, workloads = _perfbench()
    ops = workloads.generate(workload, seed)
    _, _, outputs = run.run_pass(harness.load_package(), ops)
    return ops, outputs


def api_records():
    """One `workload seed op digest` record per op."""
    _, _, workloads = _perfbench()
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            ops, outputs = api_outputs(workload, seed)
            for op, (line, result) in zip(ops, outputs):
                digest = hashlib.sha256((line or result).encode()).hexdigest()[:16]
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


@pytest.mark.parametrize("workload", sorted(KNOWN_DEFECTS))
def test_every_op_agrees_with_its_reference(workload):
    _, run, _ = _perfbench()
    for seed in SEEDS:
        ops, outputs = api_outputs(workload, seed)
        failing, known = run.check_outputs(ops, outputs)
        unexpected = {op_id: why for op_id, why in failing.items() if op_id not in known}
        first = dict(list(unexpected.items())[:3])
        assert not unexpected, f"seed {seed}: {len(unexpected)} unexpected failures, first: {first}"
        assert set(known) == KNOWN_DEFECTS[workload], f"seed {seed}: known defects {sorted(known)}"


if __name__ == "__main__":
    for record in api_records():
        print(record)
