"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import jetflow  # noqa: E402
import jetflow.cli  # noqa: E402
import jetflow.jet  # noqa: E402
import jetflow.recover  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LIBRARY_PATH = ["jet.shift_jet.self_s", "jet.hatted_shift_jet.calls",
                "jet.hatted_shift_jet.self_s", "recover.recover_shift_jet.self_s"]

# Per-layer metric -> the workload it is meant to move (see README.md).
MAPPED = {
    "exact-quartic": ["poly.mul_trunc.calls", "poly.mul_trunc.self_s",
                      "poly.mul_trunc.terms_out", "poly.mul_trunc.max_terms",
                      "poly.Substituter.apply.calls", "poly.Substituter.apply.self_s",
                      *LIBRARY_PATH],
    "exact-3var-p2": ["jet.flow_coeffs.calls", "jet.flow_coeffs.self_s",
                      "jet.flow_coeffs.hit_ratio", "recover.divide_by_initial_part.calls",
                      "recover.divide_by_initial_part.self_s",
                      "recover.divide_by_initial_part.system_cells",
                      "linalg.solve_exact.calls", "linalg.solve_exact.self_s", *LIBRARY_PATH],
    "float-p1": ["recover.delta0_linear.calls", "recover.delta0_linear.self_s",
                 "jet.flow_time_jet.calls", "jet.flow_time_jet.self_s",
                 "jet.flow_time_jet.rk4_steps", "poly.compose.calls", "poly.compose.self_s",
                 *LIBRARY_PATH],
    "cli-cold": ["cli.import_ms", "cli.run.self_s", "parsing.parse_poly.calls",
                 "parsing.parse_poly.self_s", "serialize.self_s", "fields.self_s",
                 "univar.self_s", "linalg.minimal_polynomial.self_s", "borel.self_s"],
}

# Bindings through which modules reach other modules' functions by name.
CALL_SITES = [
    (jetflow.recover, "hatted_shift_jet"), (jetflow.recover, "solve_exact"),
    (jetflow.recover, "delta0_linear"), (jetflow.jet, "compose"),
    (jetflow.jet, "flow_time_jet"), (jetflow.cli, "shift_jet"),
    (jetflow.cli, "hatted_shift_jet"), (jetflow.cli, "parse_poly"),
    (jetflow.cli, "poly_to_json"), (jetflow.cli.fields_mod, "check_star"),
    (jetflow.cli.recover_mod, "recover_shift_jet"), (jetflow, "shift_jet"),
    (jetflow, "recover_shift_jet"),
]


@pytest.fixture(scope="module")
def traced_metrics():
    os.makedirs(run.WORK_DIR, exist_ok=True)
    env = run.bench_env()
    return {w: run.traced(w, 1, 0, env)[1] for w in workloads.WORKLOADS}


def test_every_metric_is_mapped():
    names = {name for name, _ in tracer.METRICS}
    mapped = {name for metrics in MAPPED.values() for name in metrics}
    assert names - mapped == {"trace.overhead_ratio"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_mapped_metrics_nonzero(traced_metrics, workload):
    metrics = traced_metrics[workload]
    assert [name for name, _ in tracer.METRICS] == list(metrics)
    zero = [name for name in MAPPED[workload] if not metrics[name]["value"] > 0]
    assert not zero, f"{workload}: zero on its mapped workload: {zero}"


def test_counts_repeat_for_a_seed(traced_metrics):
    again = run.traced("float-p1", 1, 0, run.bench_env())[1]
    for name, unit in tracer.METRICS:
        if unit == "count":
            assert again[name] == traced_metrics["float-p1"][name], name
    for name in ("poly.mul_trunc.calls", "poly.mul_trunc.terms_out",
                 "jet.flow_time_jet.rk4_steps", "recover.divide_by_initial_part.system_cells"):
        assert again[name]["value"] > 0


def test_wrappers_bind_every_call_site_and_are_undone():
    originals = [getattr(owner, attr) for owner, attr in CALL_SITES]
    mul_trunc = jetflow.MultiPoly.mul_trunc
    with tracer.Tracer():
        for owner, attr in CALL_SITES:
            assert hasattr(getattr(owner, attr), "__perfbench_span__"), attr
        assert hasattr(jetflow.MultiPoly.mul_trunc, "__perfbench_span__")
    assert tracer.wrapped_bindings() == []
    assert [getattr(owner, attr) for owner, attr in CALL_SITES] == originals
    assert jetflow.MultiPoly.mul_trunc is mul_trunc


def test_no_wrapper_leaks_into_an_untraced_run(traced_metrics):
    assert tracer.wrapped_bindings() == []
    rec = tracer.Tracer()
    rec.install()
    rec.restore()
    op = workloads.draw("exact-quartic", 1, run.WORK_DIR)[0][0]
    assert workloads.run_round_trip(op).status == "ok"
    assert not any(rec.calls.values())


def test_inputs_follow_the_seed():
    def alphas(seed):
        return [op.alpha for group in workloads.draw("float-p1", seed, run.WORK_DIR)[:3]
                for op in group]

    assert alphas(7) == alphas(7)
    assert alphas(7) != alphas(8)


def test_envelope_comparison():
    want = {"ok": True, "value": 0.5, "num": ["1", "2"]}
    assert workloads.envelope_matches({"ok": True, "value": "0.5000000000001", "num": ["1", "2"]},
                                      want)
    assert not workloads.envelope_matches({"ok": True, "value": 0.51, "num": ["1", "2"]}, want)
    assert not workloads.envelope_matches({"ok": 1, "value": 0.5, "num": ["1", "2"]}, want)
    assert not workloads.envelope_matches({"ok": True, "value": 0.5, "num": ["1"]}, want)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-quartic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
