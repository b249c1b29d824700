"""Smoke run of the benchmark at tiny size.

    python3 perfbench/smoke.py

Checks that one seed always generates the same inputs and another seed
different ones; that a planted wrong reference is counted as a failure for
every kind of reference; that tiny op lists pass their references and the
CLI prints the API's line; and that two traced runs of one seed, in fresh
interpreters with different hash seeds, report identical exact counts.
Exits nonzero on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _fail(message: str):
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def check_inputs():
    for w in workloads.WORKLOADS:
        if workloads.generate(w, 7) != workloads.generate(w, 7):
            _fail(f"{w}: one seed gave two different op lists")
        if workloads.generate(w, 7) == workloads.generate(w, 8):
            _fail(f"{w}: two seeds gave the same op list")


def _planted(op):
    """The op with a reference that is wrong by construction: every
    integrand coefficient doubled, or the polynomial squared."""
    kind = op.ref[0]
    if kind in ("separable", "lattice"):
        terms = tuple(dataclasses.replace(t, coeff=2 * t.coeff) for t in op.ref[1])
        return dataclasses.replace(op, ref=(kind, terms) + op.ref[2:])
    nvars, poly = op.ref[1]
    square = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            square[key] = square.get(key, 0) + c1 * c2
    return dataclasses.replace(op, ref=(kind, (nvars, square)))


def check_tiny_runs(pkg):
    env = run.cli_env()
    for w in workloads.WORKLOADS:
        ops = workloads.generate(w, 3, tiny=True)
        _, _, outputs = run.run_pass(pkg, ops)
        failing, known = run.check_outputs(ops, outputs)
        unexpected = set(failing) - set(known)
        if unexpected:
            _fail(f"{w}: unexpected failures {sorted(unexpected)}: {[failing[i] for i in sorted(unexpected)]}")
        planted_ops = [_planted(op) for op in ops]
        by_kind = {}
        for op, out in zip(planted_ops, outputs):
            # the first op of each reference kind that passes and whose value
            # is nonzero, so doubling the reference must move it
            value = getattr(out[1], "value", out[1])
            if op.id not in failing and (op.kind == "poincare" or value != 0):
                by_kind.setdefault(op.ref[0] + ("/" + op.kind if op.ref[0] == "separable" else ""), (op, out))
        for kind, (op, out) in sorted(by_kind.items()):
            planted_failing, _ = run.check_outputs([op], [out])
            if op.id not in planted_failing:
                _fail(f"{w}: a planted wrong {kind} reference for {op.id} was not counted")
        cli_op = next((op for op in ops if op.cli), ops[0])
        _, stdout, code = run.cli_call(cli_op, env)
        line = outputs[ops.index(cli_op)][0]
        if code != 0 or stdout != f"{line}\n":
            _fail(f"{w}: CLI printed {stdout!r} (exit {code}), the API {line!r}")
        print(f"smoke: {w}: {len(ops)} tiny ops, known defects {sorted(known)}, planted {sorted(by_kind)} caught")


def traced_counts(pkg, workload: str, seed: int) -> dict:
    ops = workloads.generate(workload, seed, tiny=True)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        run.run_pass(pkg, ops, tracer)
    finally:
        tracer.uninstall()
    return tracer.exact_counts()


def check_counts_repeat():
    for w in workloads.WORKLOADS:
        seen = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--counts", w],
                capture_output=True,
                text=True,
                cwd=harness.ROOT,
                env=env,
                timeout=run.SUBPROCESS_TIMEOUT,
            )
            if proc.returncode != 0:
                _fail(f"{w}: traced count run failed: {proc.stderr.strip()}")
            seen.append(json.loads(proc.stdout.splitlines()[-1]))
        if seen[0] != seen[1]:
            diff = {k: (seen[0][k], seen[1][k]) for k in seen[0] if seen[0][k] != seen[1][k]}
            _fail(f"{w}: exact counts differ between two runs of one seed: {diff}")
        print(f"smoke: {w}: exact counts repeat ({sum(seen[0].values())} in total)")


def main() -> int:
    pkg = harness.load_package()
    if sys.argv[1:2] == ["--counts"]:
        print(json.dumps(traced_counts(pkg, sys.argv[2], 5), sort_keys=True))
        return 0
    check_inputs()
    print("smoke: inputs repeat for one seed and differ between seeds")
    check_tiny_runs(pkg)
    check_counts_repeat()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
