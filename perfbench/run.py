"""The padicint benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload unit_ball --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from src/.  The
load is a closed loop with one client, one process and one thread: the ops
of the workload's fixed list are issued back to back in seeded order.  One
op is what one CLI call does, in process: parse, build the Domain from
JSON, compute, render the JSON line.  A run measures for --seconds seconds
in passes over the op list; each pass also carries one round of the
workload's fixed CLI sample, one call after every few ops.  Then it checks
every output against an independent reference.

--trace 0 prints the end-to-end metrics.  The first pass warms up; in the
others a speed probe runs before every op, and each op's time is scaled to
the reference speed by the probes around it (speed.py), so that the
shared machine's swings in speed cancel.  The raw figures go to the report.
  wall_s       one pass over the op list: the sum of each op's latency,
               taken as the median of its scaled samples over the passes
  op_ms_p50    median of those per-op latencies
  op_ms_p90    their 90th percentile; at least 10 ops lie beyond it
  cli_ms_p50   median scaled wall time of the CLI sample's calls, one call
               of each op per pass, run as a subprocess
               `python -m padicint.cli ... --json`
  setup_s      median over fresh processes of the scaled time from spawn
               to the first op: interpreter, import and input generation
  peak_rss_mb  peak resident memory of the process that ran the passes
  fail_share   (failing + 1) / (attempted + 2), Laplace's estimate of the
               failure share: never 0, and one new failure on a clean
               workload doubles it
--trace 1 runs one
untraced and one traced pass, times every layer from outside the package
(see tracing.py) and prints the per-layer metrics; its spans are written to
perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  failed counts unexpected failures: an
error, a disagreement with the reference, or a CLI line that differs from
the API's.  Disagreements of a documented known defect (see harness.check)
count towards fail_share and are listed by op id, but leave correct true.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 11
IMPORT_PROBES = 3
SUBPROCESS_TIMEOUT = 120

METRICS = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cli_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_share": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pkg = harness.load_package()
    ops = workloads.generate(args.workload, args.seed)
    if args.setup_probe:
        # the parent timed this process from its spawn; report when the
        # first op could start
        print(time.monotonic())
        return 0
    if args.trace:
        report, metrics = traced_run(pkg, ops, args)
    else:
        report, metrics = measured_run(pkg, ops, args)
    print(json.dumps({"report": report}, sort_keys=True))
    for name, m in metrics.items():
        samples = report["samples"].get(name, "")
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}  {samples}".rstrip())
    for op_id, reason in sorted(report["failing_ops"].items()):
        print(f"# FAIL {op_id}: {reason}")
    result = {
        "correct": report["unexpected_failures"] == 0,
        "attempted": report["attempted"],
        "failed": report["unexpected_failures"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# -- the measured run -------------------------------------------------------------------


def run_pass(pkg, ops, tracer=None, between=None, probes=None):
    """(wall seconds, per-op seconds, per-op (line, result or error)).

    between(i), if given, runs untimed after the i-th op.  probes, if
    given, is a list that receives the time of a speed probe run before
    every op and after the last (see speed.py)."""
    gc.collect()
    latencies = []
    outputs = []
    perf = time.perf_counter
    start = perf()
    for i, op in enumerate(ops):
        if probes is not None:
            probes.append(speed.timed_probe())
        if tracer is not None:
            tracer.begin_op(op.id)
        t0 = perf()
        try:
            outputs.append(harness.run_api(op, pkg))
        except Exception as exc:  # an op that raises is a failure, not a crash
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(perf() - t0)
        if tracer is not None:
            tracer.end_op()
        if between is not None:
            between(i)
    if probes is not None:
        probes.append(speed.timed_probe())
    return perf() - start, latencies, outputs


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = harness.SRC
    env.pop("PADIC_BUDGET", None)
    return env


def cli_call(op, env) -> tuple:
    """(wall ms, stdout, exit code) of one op run as a CLI subprocess."""
    args, stdin = harness.cli_argv(op)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padicint.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=harness.ROOT,
        env=env,
        timeout=SUBPROCESS_TIMEOUT,
    )
    return (time.perf_counter() - t0) * 1000, proc.stdout, proc.returncode


def setup_times(args) -> tuple:
    """(raw, scaled) seconds from spawning a fresh benchmark process to its
    first op, one of each per process; each is scaled by the speed probes
    run just before and after it."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe"]
        cmd += ["--workload", args.workload, "--seed", str(args.seed)]
        probes = [speed.timed_probe() for _ in range(speed.WINDOW + 1)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=harness.ROOT, timeout=SUBPROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.split()[-1]) - t0)
        probes += [speed.timed_probe() for _ in range(speed.WINDOW + 1)]
        scaled.append(raw[-1] * speed.REFERENCE_S / statistics.median(probes))
    return raw, scaled


def measured_run(pkg, ops, args):
    setup_raw, setup = setup_times(args)
    cli_ops = [op for op in ops if op.cli]
    env = cli_env()
    passes = []  # (per-op seconds, probe seconds, CLI calls) per pass
    pass_s = []  # each pass with its probes and CLI calls
    first_outputs = None
    unstable = set()
    # one CLI call after every `spacing` ops: each pass carries one round
    # of the CLI sample, spread over it
    spacing = max(1, len(ops) // max(1, len(cli_ops)))

    # Passes run back to back while the next one still fits.
    start = time.monotonic()
    while not pass_s or time.monotonic() - start + statistics.median(pass_s) <= args.seconds:
        calls = []  # (op position, op id, wall ms, stdout, exit code)

        def cli_between(i):
            k, r = divmod(i + 1, spacing)
            if r == 0 and k <= len(cli_ops):
                op = cli_ops[k - 1]
                calls.append((i, op.id) + cli_call(op, env))

        probes = []
        t0 = time.monotonic()
        _, latencies, outputs = run_pass(pkg, ops, between=cli_between, probes=probes)
        pass_s.append(time.monotonic() - t0)
        passes.append((latencies, probes, calls))
        if first_outputs is None:
            first_outputs = outputs
        else:
            unstable.update(op.id for op, a, b in zip(ops, first_outputs, outputs) if a[0] != b[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failing, known = check_outputs(ops, first_outputs)
    for op_id in unstable:
        failing.setdefault(op_id, "output differs between passes")
    by_id = {op.id: line for op, (line, _) in zip(ops, first_outputs)}
    for _, _, calls in passes:
        for _, op_id, _, stdout, code in calls:
            expected = f"{by_id[op_id]}\n"
            if code != 0 or stdout != expected:
                failing.setdefault(f"{op_id}/cli", f"CLI exit {code}, stdout {stdout.strip()[:120]!r}")
    attempted = len(ops) + len(cli_ops)
    # Every sample is scaled to the reference speed by the probes around it
    # (speed.py), and each op's figure is the median of its samples.  The
    # first pass warms up and is left out, unless it is the only one.
    timed = passes[1:] or passes
    scaled = [[] for _ in ops]
    raw = [[] for _ in ops]
    cli_scaled = []
    for latencies, probes, calls in timed:
        factors = speed.factors(probes)
        for samples, raw_samples, t, f in zip(scaled, raw, latencies, factors):
            samples.append(t * f)
            raw_samples.append(t)
        cli_scaled += [ms * factors[i] for i, _, ms, _, _ in calls]
    op_ms = [statistics.median(samples) * 1000 for samples in scaled]
    p90 = statistics.quantiles(op_ms, n=10)[8]
    metrics = {
        "wall_s": sum(op_ms) / 1000,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": p90,
        # one call varies by about 15 % whatever the machine's speed, so
        # the median is taken over every call rather than per op
        "cli_ms_p50": statistics.median(cli_scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        # Laplace's estimate (failing + 1) / (attempted + 2): never 0, and a
        # single new failure on a clean workload doubles it
        "fail_share": (len(failing) + 1) / (attempted + 2),
    }
    report = _report(args, ops, failing, known, attempted)
    basis = f"{len(ops)} ops, median of {len(timed)} passes each"
    report["samples"] = {
        "wall_s": basis,
        "op_ms_p50": basis,
        "op_ms_p90": f"{basis}; {sum(x > p90 for x in op_ms)} ops beyond it",
        "cli_ms_p50": f"{len(cli_scaled)} calls of {len(cli_ops)} ops",
        "setup_s": f"{len(setup)} fresh processes",
        "peak_rss_mb": "1 process",
        "fail_share": f"{len(failing)} failing of {attempted} attempted",
    }
    report["pass_s"] = pass_s
    # the same figures before scaling, and the machine's speed through the run
    all_probes = [t for _, probes, _ in timed for t in probes]
    report["raw"] = {
        "wall_s": sum(statistics.median(samples) for samples in raw),
        "setup_s": statistics.median(setup_raw),
        "probe_ms_median": statistics.median(all_probes) * 1000,
        "probe_ms_min": min(all_probes) * 1000,
        "reference_probe_ms": speed.REFERENCE_S * 1000,
    }
    return report, {name: {"value": value, "unit": METRICS[name]} for name, value in metrics.items()}


def check_outputs(ops, outputs):
    """({op id: reason} for failing ops, {op id: known defect})."""
    failing, known = {}, {}
    for op, (line, result) in zip(ops, outputs):
        if line is None:
            failing[op.id] = result
            continue
        ok, defect, detail = harness.check(op, result)
        if not ok:
            failing[op.id] = detail if defect is None else f"known defect ({defect}): {detail}"
            if defect is not None:
                known[op.id] = defect
    return failing, known


def _report(args, ops, failing, known, attempted) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failing_ops": failing,
        "known_defect_ops": sorted(known),
        "unexpected_failures": len(set(failing) - set(known)),
        "provenance": provenance(len(ops)),
    }


def provenance(ops_per_pass: int) -> dict:
    src_lines = 0
    pkg_dir = os.path.join(harness.SRC, "padicint")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name)) as handle:
                src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "ops_per_pass": ops_per_pass,
        "src_lines": src_lines,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _commit() -> str:
    """The checked-out commit when the checkout is a git work tree."""
    head = os.path.join(harness.ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(harness.ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


# -- the traced run ---------------------------------------------------------------------


def import_times() -> list:
    """Seconds a fresh interpreter spends in `import padicint`."""
    code = "import time; t = time.perf_counter(); import padicint; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=harness.ROOT,
            env=cli_env(),
            timeout=SUBPROCESS_TIMEOUT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"import probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_cli_in_process(pkg, op) -> str:
    args, stdin = harness.cli_argv(op)
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = pkg.cli.main(args)
    finally:
        sys.stdin = saved
    return out.getvalue() if code == 0 else f"exit {code}"


def traced_run(pkg, ops, args):
    import_s = statistics.median(import_times())
    wall_plain, _, plain_outputs = run_pass(pkg, ops)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        wall_traced, _, outputs = run_pass(pkg, ops, tracer)
        cli_ops = [op for op in ops if op.cli]
        cli_lines = {}
        for op in cli_ops:
            tracer.begin_op(f"{op.id}/cli")
            cli_lines[op.id] = run_cli_in_process(pkg, op)
            tracer.end_op()
    finally:
        tracer.uninstall()

    failing, known = check_outputs(ops, outputs)
    for op, a, b in zip(ops, plain_outputs, outputs):
        if a[0] != b[0]:
            failing.setdefault(op.id, "traced output differs from the untraced one")
    by_id = {op.id: line for op, (line, _) in zip(ops, outputs)}
    for op_id, text in cli_lines.items():
        if text != f"{by_id[op_id]}\n":
            failing.setdefault(f"{op_id}/cli", f"in-process CLI printed {text.strip()[:120]!r}")
    attempted = len(ops) + len(cli_lines)

    counts = tracer.exact_counts()
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        values[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        values[f"{layer}.errors"] = (counts[f"{layer}.errors"], "count")
    for name in ("add_calls", "mul_calls", "eq_calls", "divexact_calls", "eval_calls"):
        values[f"aqring.{name}"] = (counts[f"aqring.{name}"], "count")
    classes = counts["integrate.oracle_classes"]
    values["integrate.symbolic_self_s"] = (tracer.phase_self_s[("integrate", "symbolic")], "s")
    values["integrate.terms_built"] = (counts["integrate.terms_built"], "count")
    values["integrate.oracle_self_s"] = (tracer.phase_self_s[("integrate", "oracle")], "s")
    values["integrate.expr_eval_calls"] = (counts["integrate.expr_eval_calls"], "count")
    values["integrate.oracle_classes"] = (classes, "count")
    values["integrate.oracle_bad_ratio"] = (counts["integrate.oracle_boundary"] / classes if classes else 0.0, "ratio")
    values["presburger.weighted_tail_calls"] = (counts["presburger.weighted_tail_calls"], "count")
    for name in ("partition_calls", "disjoint_calls", "contains_calls"):
        values[f"kcells.{name}"] = (counts[f"kcells.{name}"], "count")
    values["padic.residues_yielded"] = (counts["padic.residues_yielded"], "count")
    values["padic.ord_calls"] = (counts["padic.ord_calls"], "count")
    for name in ("eval_calls", "eval_mod_calls", "shift_calls"):
        values[f"polys.{name}"] = (counts[f"polys.{name}"], "count")
    candidates = counts["poincare.lift_candidates"]
    values["poincare.lift_self_s"] = (tracer.phase_self_s[("poincare", "lift")], "s")
    values["poincare.lift_candidates"] = (candidates, "count")
    values["poincare.lift_hit_ratio"] = (counts["poincare.lift_solutions"] / candidates if candidates else 0.0, "ratio")
    values["poincare.fit_self_s"] = (tracer.phase_self_s[("poincare", "fit")], "s")
    values["poincare.identity_self_s"] = (tracer.phase_self_s[("poincare", "identity")], "s")
    values["cli.import_s"] = (import_s, "s")
    values["trace.overhead_s"] = (wall_traced - wall_plain, "s")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json.gz")
    tracer.write_spans(spans_path)

    report = _report(args, ops, failing, known, attempted)
    report["samples"] = {"trace.overhead_s": "1 traced and 1 untraced pass", "cli.import_s": f"{IMPORT_PROBES} fresh processes"}
    report["exact_counts"] = counts
    report["spans"] = {"count": len(tracer.spans), "path": os.path.relpath(spans_path, harness.ROOT)}
    report["walls_s"] = {"untraced": wall_plain, "traced": wall_traced}
    return report, {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
