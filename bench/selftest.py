"""Quick self-test of the benchmark.

Usage: python3 bench/selftest.py     (from the root of a checkout; about a minute)

Checks that BENCHMARK.json lists exactly the metrics the harness emits,
runs every workload at a tiny size plain and traced and asserts that
every named metric is emitted and every output matches its reference,
that deliberately perturbed outputs are caught by the reference check,
that an operation past its time limit is recorded as a timeout, and that
a batch cut short by the run's time budget gives no result.
"""

import dataclasses
import json
import math
import os
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, load_references  # noqa: E402


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def check_tiny_runs() -> None:
    expect_nonzero = {
        "numeric-certify": ("bessel.bessel_j1.elements", "kernels.kloosterman_row.repeat_ratio",
                            "trace.A_numeric.stop_on_cap_ratio", "trace.certify_numeric.error_bar"),
        "verify-all": ("verify.runge.s", "verify.runge.checks", "runge.self_s"),
        "cli-batch": ("cli.import_s", "cli.main.self_s", "cli.main.calls"),
    }
    for name in WORKLOADS:
        for trace, names in ((False, [m[0] for m in run.END_TO_END]), (True, [m[0] for m in run.PER_LAYER])):
            out = run.run_workload(name, run.DEFAULT_SEED, 1.0, trace, tiny=True)["result"]
            assert out["correct"] and out["failed"] == 0, (name, trace, out)
            assert list(out["metrics"]) == names, (name, trace)
            assert all(math.isfinite(m["value"]) for m in out["metrics"].values()), (name, trace)
            if trace:
                for metric in expect_nonzero[name]:
                    assert out["metrics"][metric]["value"] > 0, (name, metric)
            else:
                assert all(m["value"] > 0 for m in out["metrics"].values()), (name, out)
        print(f"ok  {name}: tiny plain and traced runs emit every metric and match the references")


def _perturbations(name: str, out) -> list:
    if name == "numeric-certify":
        comp = out.components
        return [
            dataclasses.replace(out, verdict="indeterminate"),
            dataclasses.replace(out, components={**comp, "value": comp["value"] + 3 * comp["error_bound"]}),
            dataclasses.replace(out, components={**comp, "error_bound": 1.5 * comp["error_bound"]}),
        ]
    if name == "verify-all":
        return [[dataclasses.replace(r, checks=r.checks + 1) for r in out],
                [dataclasses.replace(r, failures=["perturbed"]) for r in out]]
    code, stdout, path = out
    return [(1, stdout, path), (code, stdout.replace(b"{", b"{ ", 1), path)]


def check_perturbations() -> None:
    refs = load_references()
    for name, w in WORKLOADS.items():
        op = w.make_ops(run.DEFAULT_SEED, tiny=True)[0]
        out = w.run(op, w.op_limit_s, False)
        ref = refs[name][op.key]
        assert w.check(w.summarize(out), ref) is None, name
        for bad in _perturbations(name, out):
            assert w.check(w.summarize(bad), ref) is not None, (name, bad)
        print(f"ok  {name}: perturbed outputs are reported as mismatches")


def check_time_limit() -> None:
    class Sleeper:
        def run(self, op, limit, traced):
            time.sleep(30)

    signal.signal(signal.SIGALRM, worker._alarm)
    out, status, _, latency = worker._run_op(Sleeper(), None, 0.2, False)
    assert out is None and status == "timeout" and latency < 5, (status, latency)
    print("ok  an operation past its time limit is recorded as a timeout")
    past = repr(time.time() - 1.0)
    assert worker.main(["verify-all", str(run.DEFAULT_SEED), "plain", "0", past, "--tiny"]) == 3
    print("ok  a batch that runs out of the run's time budget gives no result")


if __name__ == "__main__":
    check_benchmark_json()
    check_time_limit()
    check_perturbations()
    check_tiny_runs()
    print("selftest passed")
