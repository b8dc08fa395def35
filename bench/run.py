"""qcbounds benchmark: three workloads, end-to-end metrics, a traced per-module run.

Run from the root of a checkout (it imports `src/qcbounds`, nothing installed):

    python3 bench/run.py --workload numeric-certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --report [--seconds 30] [--seed 12345]
    python3 bench/make_references.py     # rewrite bench/references.json
    python3 bench/selftest.py            # quick self-test at tiny sizes

Workloads (see workloads.py): numeric-certify, verify-all, cli-batch.  A
run repeats one seed-drawn batch round(seconds / nominal pass time) times,
each pass in a fresh interpreter, so the work of a run is fixed by
--seconds and takes about that long on a 2-CPU machine.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 they are the per-module metrics, from
traced passes alternated with plain ones.  Every operation has a time
limit; a timeout, an exception or a reference mismatch is a failed
operation, named on its own line.  Details (every op, the full
per-function table, machine info) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

from tracer import MODULES, merge_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 12345
RUN_BUDGET_S = 150.0  # a run that needs longer stops with no result; exit stays under 180 s
SETUP_SAMPLES = 5

# name, unit, better, bound (share of the parent's median it may worsen by)
# Timings get the largest bound: on a shared 2-CPU VM the same run drifts
# by about 10% (IQR over runs) from minute to minute.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
)


def _fn(name: str, *kinds: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "self_s": "s", "elements": "count", "repeat_ratio": "ratio",
             "stop_on_cap_ratio": "ratio", "max_bits": "bits", "error_bar": "1"}
    return [(f"{name}.{k}", units[k]) for k in kinds]


# Per-module metrics: calls, self time and errors of each module, then the
# functions an optimisation is most likely to move.  Every function's
# calls/self_s/errors are in the .bench_out table.  Expected links to the
# end-to-end metrics: on numeric-certify the trace/kernels/bessel metrics and
# stop_on_cap_ratio move wall_s, repeat_ratio moves wall_s and peak_rss_mib;
# on verify-all arith.kloosterman_*, bounds.weil_bound, verify.tails.s and
# isogeny.contradiction_search.self_s move wall_s, and
# compgroup.smith_normal_form's self_s and max_bits move wall_s and its
# failures; cli.import_s moves the cli-batch latencies and every setup_s.
PER_LAYER = tuple(
    [(f"{m}.{k}", u) for m in MODULES for k, u in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + _fn("trace.certify_numeric", "calls", "self_s", "error_bar")
    + _fn("trace.new_plus_pairing", "self_s") + _fn("trace.pairing_numeric", "self_s")
    + _fn("trace.A_numeric", "calls", "self_s", "stop_on_cap_ratio")
    + _fn("trace.B_numeric", "calls", "self_s", "stop_on_cap_ratio")
    + _fn("trace.certify_nonvanishing", "calls", "self_s")
    + _fn("kernels.kloosterman_row", "calls", "self_s", "repeat_ratio")
    + _fn("kernels.series_kloosterman", "calls", "self_s", "elements")
    + _fn("bessel.bessel_j1", "calls", "self_s", "elements")
    + _fn("arith.kloosterman_direct", "calls", "self_s") + _fn("arith.kloosterman_fast", "calls", "self_s")
    + _fn("arith.divisor_count", "calls", "self_s") + _fn("arith.factorize", "calls", "self_s")
    + _fn("arith.is_prime", "calls", "self_s") + _fn("arith.make_character", "self_s")
    + _fn("bounds.weil_bound", "calls", "self_s") + _fn("bounds.tail_bounds", "calls", "self_s")
    + _fn("bounds.twisted_dft_all", "self_s") + _fn("bounds.twisted_partial_sup", "self_s")
    + _fn("isogeny.contradiction_search", "calls", "self_s") + _fn("isogeny.nonsplit_threshold", "calls")
    + _fn("compgroup.smith_normal_form", "calls", "self_s", "max_bits")
    + _fn("compgroup.component_group", "calls", "self_s") + _fn("compgroup.relation_matrix", "self_s")
    + _fn("compgroup.integer_determinant", "self_s") + _fn("compgroup.two_torsion_obstruction", "self_s")
    + _fn("compgroup.rho_value_set", "self_s")
    + _fn("runge.unit_g", "self_s") + _fn("runge.reduce_to_fundamental_domain", "calls", "self_s")
    + _fn("runge.j_invariant", "self_s") + _fn("runge.g_deviation", "self_s")
    + _fn("runge.locate_near_cusp", "calls")
    + [(f"verify.{s}.{k}", u) for s in ("weil", "trig", "twisted", "tails", "runge", "compgroup",
                                        "certify-grid", "envelope")
       for k, u in (("s", "s"), ("checks", "count"))]
    + _fn("verify.run_suite", "calls")
    + [("cli.import_s", "s")] + _fn("cli.main", "calls", "self_s")
    + [("bench.traced_wall_s", "s"), ("bench.trace_overhead_s", "s"), ("bench.glue_s", "s")]
)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _spawn(name: str, seed: int, mode: str, pass_index: int, deadline: float, tiny: bool) -> dict:
    cmd = [sys.executable, WORKER, name, str(seed), mode, str(pass_index), repr(deadline)]
    try:
        proc = subprocess.run(cmd + (["--tiny"] if tiny else []), capture_output=True, text=True,
                              cwd=ROOT, timeout=max(10.0, deadline - time.time() + 10.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {name} did not finish by the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail_latency(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 samples above it, and its
    percentile; the maximum (p100) when there are 10 samples or fewer."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 10
    return s[k - 1], 100.0 * k / len(s)


def _per_layer(traced: list[dict], plain_walls: list[float]) -> tuple[dict, dict]:
    """Per-pass means of the traced passes' stats, and the summed per-function table."""
    n = len(traced)
    totals: dict[str, dict[str, float]] = {}
    extras: dict[str, float] = {}
    for r in traced:
        merge_stats(totals, r["stats"])
        for key, value in r["extras"].items():
            extras[key] = extras.get(key, 0.0) + value / n

    values: dict[str, float] = {}
    for fname, s in totals.items():
        calls = s.get("calls", 0)
        values[f"{fname}.calls"] = calls / n
        values[f"{fname}.self_s"] = s.get("self_s", 0.0) / n
        values[f"{fname}.errors"] = s.get("errors", 0) / n
        if "elements" in s:
            values[f"{fname}.elements"] = s["elements"] / n
        if "repeats" in s:
            values[f"{fname}.repeat_ratio"] = s["repeats"] / calls if calls else 0.0
        if "capped" in s:
            values[f"{fname}.stop_on_cap_ratio"] = s["capped"] / calls if calls else 0.0
        if "max_bits" in s:
            values[f"{fname}.max_bits"] = s["max_bits"]
        module = fname.split(".", 1)[0]
        for key in ("calls", "self_s", "errors"):
            values[f"{module}.{key}"] = values.get(f"{module}.{key}", 0.0) + values[f"{fname}.{key}"]
    values.update(extras)

    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["bench.traced_wall_s"] = traced_wall
    values["bench.trace_overhead_s"] = traced_wall - statistics.median(plain_walls)
    # What the spans and the CLI imports do not cover: process start-up and
    # the benchmark's own code between operations.
    self_total = sum(s.get("self_s", 0.0) for s in totals.values()) / n
    imports = statistics.fmean(r["import_total_s"] for r in traced)
    values["bench.glue_s"] = statistics.fmean(r["wall_s"] for r in traced) - self_total - imports
    return values, totals


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """All passes of one run; returns the result object plus report details."""
    workload = WORKLOADS[name]
    passes = 1 if tiny else max(1, round(seconds / workload.nominal_pass_s))
    if trace:  # traced passes alternate with plain ones on the same inputs
        modes = [(mode, i) for i in range(math.ceil(passes / 2)) for mode in ("plain", "traced")]
    else:
        modes = [("plain", i) for i in range(passes)]
    deadline = time.time() + RUN_BUDGET_S
    runs = [(mode, _spawn(name, seed, mode, i, deadline, tiny)) for mode, i in modes]
    setups = [r["setup_s"] for _, r in runs]
    while len(setups) < SETUP_SAMPLES and time.time() < deadline:
        setups.append(_spawn(name, seed, "setup", 0, deadline, tiny)["setup_s"])

    plain = [r for mode, r in runs if mode == "plain"]
    ops = [op for _, r in runs for op in r["ops"]]
    failures = [op for op in ops if op["status"] != "ok"]
    # One latency per distinct operation: its median over the passes that ran
    # it, which filters the bursts of a shared machine.  A failed operation
    # keeps its latency: it missed any latency limit.
    by_op: dict[str, list[float]] = {}
    for r in plain:
        for op in r["ops"]:
            by_op.setdefault(op["op"], []).append(op["latency_s"])
    latencies = [statistics.median(v) for v in by_op.values()]
    plain_walls = [r["wall_s"] for r in plain]
    tail, tail_pct = tail_latency(latencies)
    e2e = {
        "wall_s": sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in plain),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
    }
    notes = [
        f"{name}: seed {seed}, {len(plain)} plain pass(es), {len(latencies)} distinct op(s), "
        f"{len(setups)} set-up samples",
        f"latency_tail_s is p{tail_pct:.1f} of {len(latencies)} per-op latencies "
        f"({'the maximum' if tail_pct == 100.0 else 'the highest with >= 10 samples above'})",
        f"fail_rate = {len(failures)}/{len(ops)} operations",
    ]
    traced = [r for mode, r in runs if mode == "traced"]
    layer, table = _per_layer(traced, plain_walls) if trace else ({}, {})
    if trace:
        traced_wall, overhead = layer["bench.traced_wall_s"], layer["bench.trace_overhead_s"]
        notes.append(f"tracing overhead (median pass wall): traced {traced_wall:.4f} s - "
                     f"plain {traced_wall - overhead:.4f} s = {overhead:.4f} s")

    metric_defs = [(n, u) for n, u in PER_LAYER] if trace else [(n, u) for n, u, _, _ in END_TO_END]
    source = layer if trace else e2e
    metrics = {n: {"value": source.get(n, 0.0), "unit": u} for n, u in metric_defs}
    return {
        "result": {
            "correct": not any(op["status"] in ("mismatch", "error") for op in ops),
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": metrics,
        },
        "end_to_end": e2e,
        "notes": notes,
        "failures": failures,
        "ops": ops,
        "functions": table,
        "versions": runs[0][1]["versions"],
    }


def machine_info(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        sha = proc.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "git_sha": sha,
    }


def _print_run(name: str, out: dict) -> None:
    for line in out["notes"]:
        print(line)
    for op in out["failures"]:
        print(f"FAILED {name} op {op['op']}: {op['status']}: {op['detail']}")
    for metric, m in out["result"]["metrics"].items():
        print(f"metric {name} {metric} = {m['value']:.6g} {m['unit']}")


def _save(name: str, trace: bool, out: dict, info: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.trace{int(trace)}.result.json"), "w") as fh:
        json.dump({"machine": info, **out}, fh, indent=1, default=str)


def _check_tree() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "qcbounds", "__init__.py")):
        raise BenchError(f"no src/qcbounds under {ROOT}: run from the root of a qcbounds checkout")


def report(seed: int, seconds: float) -> int:
    """Every metric of every workload by name with its unit, the machine,
    and the ROADMAP baseline rows this machine reproduces or contradicts."""
    import baseline

    info = None
    for name in WORKLOADS:
        for trace in (False, True):
            out = run_workload(name, seed, seconds, trace)
            info = info or machine_info(out["versions"])
            _save(name, trace, out, info)
            _print_run(name, out)
            print(f"{name} trace={int(trace)}: attempted {out['result']['attempted']}, "
                  f"failed {out['result']['failed']}, correct {out['result']['correct']}")
    print("machine: " + json.dumps(info))
    rows = baseline.compare()
    for row in rows:
        print(f"baseline {row['verdict']}: {row['row']}: ROADMAP {row['roadmap']}, "
              f"measured {row['measured']}")
    with open(os.path.join(OUT_DIR, "report.json"), "w") as fh:
        json.dump({"machine": info, "baseline": rows}, fh, indent=1)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload plain and traced, print every metric, "
                             "the machine and the ROADMAP baseline comparison")
    args = parser.parse_args(argv)
    try:
        _check_tree()
        if args.report:
            return report(args.seed, args.seconds)
        if not args.workload:
            parser.error("--workload is required (or --report)")
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _save(args.workload, bool(args.trace), out, machine_info(out["versions"]))
    _print_run(args.workload, out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
