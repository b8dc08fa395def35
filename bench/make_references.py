"""Write bench/references.json: the outputs of every input in each workload's domain.

Usage: python3 bench/make_references.py [WORKLOAD ...]

Run it only on a commit whose outputs are trusted; the benchmark then
counts any departure from these outputs as a failed operation.  Every
reference input must succeed (the CLI ones with exit code 0), so the
workloads contain no operation that is expected to fail.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402


def main(names: list[str]) -> int:
    refs = workloads.load_references() if os.path.exists(workloads.REFERENCES) else {}
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        entries = {}
        for op in w.reference_ops():
            summary = w.summarize(w.run(op, w.op_limit_s, False))
            succeeded = (
                summary.get("exit", 0) == 0
                and summary.get("verdict", "certified-positive") == "certified-positive"
                and all(s["passed"] for s in summary.get("suites", {}).values())
            )
            if not succeeded:
                raise SystemExit(f"reference input {op.label} does not succeed: {summary}")
            entries[op.key] = summary
        refs[name] = entries
        print(f"{name}: {len(entries)} references", flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
