"""jetflow benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-quartic --seed 1 --seconds 25 --trace 0

Workloads: exact-quartic, exact-3var-p2, float-p1, cli-cold (see README.md).
With --trace 0 the run measures the end-to-end metrics with nothing
patched, scaling wall times to a reference machine speed measured between
operations (calibrate.py); with --trace 1 it reports per-layer counts and
self times from traced passes.  Human-readable lines come first; the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

# numpy/BLAS threads pinned to one, and no tolerance override from outside.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SCRUBBED_VARS = ("JETFLOW_FLOAT_TOL",)

SETUP_PROBES = 9     # fresh interpreters per run; setup_s is their median
IMPORT_PROBES = 5    # fresh interpreters per traced run; cli.import_ms is their median
TRACE_GROUPS = 1     # groups in the fixed op list of a traced run

END_TO_END = [("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("recover_ms_p50", "ms"), ("shift_jet_ms_p50", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def bench_env():
    env = dict(os.environ)
    for var in SCRUBBED_VARS:
        env.pop(var, None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def median_of(values):
    return statistics.median(values) if values else None


def p90_of(values):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10)[8]


# -- fresh-interpreter probes ----------------------------------------------


def probe_setup(env, workload, seed):
    """Seconds from starting an interpreter to its first operation being ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, CHILD, "setup", workload, str(seed), WORK_DIR],
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def probe_import(env):
    out = subprocess.run([sys.executable, CHILD, "import"], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


# -- running operations ----------------------------------------------------


def make_runner(workload, env, trace_out=None):
    """op -> Record; for cli-cold, trace_out makes each child record its spans."""
    import workloads

    if workload != "cli-cold":
        return workloads.run_round_trip
    counter = itertools.count()

    def run(op):
        if trace_out is None:
            return workloads.run_cli(op, env, [sys.executable, "-c", workloads.CLI_BOOT])
        path = os.path.join(trace_out, f"span-{next(counter):06d}.json")
        return workloads.run_cli(op, env, [sys.executable, CHILD, "cli", path])
    return run


def run_groups(groups, runner, seconds=None, speed=None):
    """Run every group once, or whole groups (cycling) for about `seconds`:
    the run stops when the next group would end more than half a group past
    the limit, judged by the mean group time so far.

    When `speed` is a list, a calibration sample (ms) is appended before the
    first operation and after every operation, outside the operations' times.
    Returns the records and the number of groups run.
    """
    records = []
    start = time.perf_counter()
    if speed is not None:
        speed.append(calibrate.sample_ms())
    ngroups = 0
    while True:
        for op in groups[ngroups % len(groups)]:
            records.append(runner(op))
            if speed is not None:
                speed.append(calibrate.sample_ms())
        ngroups += 1
        elapsed = time.perf_counter() - start
        if seconds is None:
            if ngroups == len(groups):
                break
        elif elapsed + 0.5 * elapsed / ngroups >= seconds:
            break
    return records, ngroups


def speed_scales(speed):
    """Factor per operation: REFERENCE_MS over the mean of the calibration
    samples taken just before and just after it."""
    return [calibrate.REFERENCE_MS / statistics.mean(speed[i:i + 2])
            for i in range(len(speed) - 1)]


def scaled_busy_s(records, speed):
    return sum(r.op_ms * f for r, f in zip(records, speed_scales(speed))) / 1e3


# -- the two kinds of run --------------------------------------------------


def end_to_end(workload, seed, seconds, env):
    """Wall times scaled to the reference speed of `calibrate`.

    Each operation's times are multiplied by REFERENCE_MS over the mean of
    the calibration samples taken just before and just after it, setup_s by
    the samples around the probes.  Raw values are printed too.
    """
    import workloads

    speed = [calibrate.sample_ms()]
    setup_raw = median_of([probe_setup(env, workload, seed) for _ in range(SETUP_PROBES)])
    speed.append(calibrate.sample_ms())
    setup_scale = calibrate.REFERENCE_MS / statistics.mean(speed)

    groups = workloads.draw(workload, seed, WORK_DIR)
    speed = []
    records, ngroups = run_groups(groups, make_runner(workload, env), seconds, speed)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    scales = speed_scales(speed)

    def summarise(scaled):
        def times(key):
            return [getattr(r, key) * (scale if scaled else 1.0)
                    for r, scale in zip(records, scales) if getattr(r, key) is not None]
        op_ms = times("op_ms")
        return {
            "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
            "op_ms_p50": median_of(op_ms),
            "op_ms_p90": p90_of(op_ms),
            "recover_ms_p50": median_of(times("recover_ms")),
            "shift_jet_ms_p50": median_of(times("shift_ms")),
            "setup_s": setup_raw * (setup_scale if scaled else 1.0),
            "peak_rss_mb": rss_mb,
        }

    values, raw = summarise(True), summarise(False)
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise RuntimeError(f"no samples for {', '.join(missing)}")
    print(f"run: {len(records)} operations in {sum(r.op_ms for r in records) / 1e3:.3f} s, "
          f"{ngroups} groups of {len(groups[0])}")
    print(f"speed: calibration {statistics.median(speed):.4f} ms median "
          f"({min(speed):.4f}-{max(speed):.4f}) against {calibrate.REFERENCE_MS} ms "
          "reference; metrics are scaled to the reference, raw lines are not")
    print_detail(records)
    for name, unit in END_TO_END:
        print(f"raw {name} = {raw[name]:.6g} {unit}")
    for name, unit in END_TO_END:
        print(f"metric {name} = {values[name]:.6g} {unit}")
    return records, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_pass(workload, seed, env, speed):
    """One pass over the fixed op list with every layer wrapped."""
    import tracer
    import workloads

    groups = workloads.draw(workload, seed, WORK_DIR)[:TRACE_GROUPS]
    if workload != "cli-cold":
        with tracer.Tracer() as rec:
            records, _ = run_groups(groups, make_runner(workload, env), speed=speed)
        return records, rec.snapshot()
    span_dir = os.path.join(WORK_DIR, "spans")
    shutil.rmtree(span_dir, ignore_errors=True)
    os.makedirs(span_dir)
    records, _ = run_groups(groups, make_runner(workload, env, span_dir), speed=speed)
    snaps = []
    for name in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, name), encoding="utf-8") as fh:
            snaps.append(json.load(fh))
    shutil.rmtree(span_dir)
    return records, tracer.merge(snaps)


def traced(workload, seed, seconds, env):
    """Alternate untraced and traced passes over one fixed op list.

    Counts come from the traced passes and must agree between them exactly;
    self times are medians over the traced passes (not scaled).  The
    overhead is the median traced pass time over the median untraced one,
    minus 1, both scaled to the reference speed like the end-to-end times.
    """
    import tracer
    import workloads

    import_ms = median_of([probe_import(env) for _ in range(IMPORT_PROBES)])
    records, untraced_s, traced_s, raws = [], [], [], []
    start = time.perf_counter()
    while True:
        groups = workloads.draw(workload, seed, WORK_DIR)[:TRACE_GROUPS]
        speed = []
        recs, _ = run_groups(groups, make_runner(workload, env), speed=speed)
        records += recs
        untraced_s.append(scaled_busy_s(recs, speed))
        speed = []
        recs, raw = traced_pass(workload, seed, env, speed)
        records += recs
        traced_s.append(scaled_busy_s(recs, speed))
        raws.append(raw)
        leaks = tracer.wrapped_bindings()
        if leaks:
            raise RuntimeError(f"tracer wrappers left behind: {leaks}")
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(raws) >= seconds:
            break
    for raw in raws[1:]:
        if (raw["calls"], raw["counts"]) != (raws[0]["calls"], raws[0]["counts"]):
            raise RuntimeError("traced passes over the same ops counted differently")
    raw = dict(raws[0], self_s={name: statistics.median(r["self_s"][name] for r in raws)
                                for name in raws[0]["self_s"]})
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    print(f"trace: {len(raws)} traced and {len(untraced_s)} untraced passes of "
          f"{sum(len(g) for g in groups)} operations; median {statistics.median(traced_s):.3f} s "
          f"traced, {statistics.median(untraced_s):.3f} s untraced")
    metrics = tracer.per_layer(raw, import_ms, overhead)
    for name, entry in metrics.items():
        print(f"layer {name} = {entry['value']:.6g} {entry['unit']}")
    return records, metrics


# -- reporting -------------------------------------------------------------


def print_detail(records):
    """Per-K (library) or per-subcommand (cli) rows of raw times, for
    comparison by hand."""
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    for label, recs in sorted(by_label.items()):
        parts = [f"detail {label} (raw): n={len(recs)}",
                 f"op_ms_p50={median_of([r.op_ms for r in recs]):.1f}"]
        for key in ("shift_ms", "recover_ms"):
            vals = [getattr(r, key) for r in recs if getattr(r, key) is not None]
            if vals:
                parts.append(f"{key}_p50={median_of(vals):.1f}")
        parts.append(f"failed={sum(r.status != 'ok' for r in recs)}")
        print(" ".join(parts))


def machine_line():
    import numpy
    import scipy

    return (f"machine: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, {platform.machine()}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-quartic", "exact-3var-p2", "float-p1", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jetflow", "__init__.py")):
        print(f"perfbench: no jetflow sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    env = bench_env()
    for var in SCRUBBED_VARS:
        os.environ.pop(var, None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import jetflow

    if os.path.dirname(os.path.abspath(jetflow.__file__)) != os.path.join(SRC, "jetflow"):
        print(f"perfbench: imported jetflow from {jetflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(machine_line())
    run = traced if args.trace else end_to_end
    records, metrics = run(args.workload, args.seed, args.seconds, env)

    refused = sum(r.status == "refused" for r in records)
    wrong = [r for r in records if r.status == "wrong"]
    failed = refused + len(wrong)
    print(f"fail_ratio = {failed / len(records):.6g} ({failed} of {len(records)} "
          f"attempted: {refused} refused, {len(wrong)} wrong)")
    for r in [r for r in records if r.status != "ok"][:5]:
        print(f"failure {r.label} [{r.status}]: {r.detail}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
