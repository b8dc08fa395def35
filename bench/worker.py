"""One pass of a workload in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED {setup,plain,traced} PASS DEADLINE [--tiny]

Times the set-up (import qcbounds, then draw the inputs), runs the batch
of operations one after another with a per-operation time limit, then
checks every output against the references.  Prints one JSON line.
DEADLINE is a wall-clock time (time.time()) no operation may run past; a
batch that cannot finish by then exits with code 3 and prints no result.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _run_op(workload, op, limit: float, traced: bool):
    """Returns (output or None, status, detail, latency_s)."""
    signal.setitimer(signal.ITIMER_REAL, limit + 1.0)
    t0 = time.perf_counter()
    try:
        out = workload.run(op, limit, traced)
        status, detail = "ok", ""
    except (OpTimeout, subprocess.TimeoutExpired):
        out, status, detail = None, "timeout", f"no result within {limit:.0f} s"
    except Exception as exc:  # the operation's own failure is the measurement
        out, status, detail = None, "error", f"{type(exc).__name__}: {exc}"[:300]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, status, detail, time.perf_counter() - t0


def main(argv: list[str]) -> int:
    name, seed, mode, pass_index, deadline = argv[0], int(argv[1]), argv[2], int(argv[3]), float(argv[4])
    tiny = "--tiny" in argv[5:]

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import qcbounds

    workload = workloads.WORKLOADS[name]
    ops = workload.make_ops(seed, tiny, pass_index)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(qcbounds.__file__).startswith(SRC + os.sep):
        print(f"qcbounds imported from {qcbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    refs = workloads.load_references()[name]
    traced = mode == "traced"
    log = None
    if traced:
        import tracer

        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        log = tracer.install()
    signal.signal(signal.SIGALRM, _alarm)

    outputs, records = [], []
    t_batch = time.perf_counter()
    for op in ops:
        limit = min(workload.op_limit_s, deadline - time.time())
        out, status, detail, lat = (None, "timeout", "", 0.0) if limit <= 0 else _run_op(
            workload, op, limit, traced)
        if status == "timeout" and limit < workload.op_limit_s:
            # Cut by the run's budget, not by the op's own limit: a truncated
            # batch would report a shorter time than it needs, so no result.
            print(f"run budget used up at {op.label}", file=sys.stderr)
            return 3
        outputs.append(out)
        records.append({"op": op.label, "status": status, "detail": detail, "latency_s": lat})
    result["wall_s"] = time.perf_counter() - t_batch

    usage = resource.RUSAGE_CHILDREN if name == "cli-batch" else resource.RUSAGE_SELF
    result["rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024.0

    for op, out, rec in zip(ops, outputs, records):
        if out is None:
            continue
        ref = refs.get(op.key)
        try:
            problem = "no reference for this input" if ref is None else workload.check(
                workload.summarize(out), ref)
        except Exception as exc:  # an output of the wrong shape is a mismatch too
            problem = f"output could not be checked: {type(exc).__name__}: {exc}"
        if problem:
            rec["status"], rec["detail"] = "mismatch", problem
    result["ops"] = records

    if traced:
        stats = log.stats()
        tables = [log.table()]
        import_s = []
        for child in workload.child_traces(outputs):
            tracer.merge_stats(stats, child["stats"])
            tables.append(child["spans"])
            import_s.append(child["import_s"])
        result["stats"] = stats
        result["extras"] = workload.layer_extras(outputs)
        result["import_total_s"] = sum(import_s)
        if import_s:
            result["extras"]["cli.import_s"] = statistics.median(import_s)
        tracer.write_spans(os.path.join(workloads.OUT_DIR, f"{name}.pass{pass_index}.spans.json.gz"),
                           tables)

    import numpy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
