"""The `qcbounds` console script, run from the checkout's `src/`.

Usage: python3 bench/cli_entry.py <qcbounds arguments>

With QCBENCH_TRACE_OUT set to a path, it also times `import qcbounds.cli`,
traces the call of `cli.main` and writes the import time, the span table
and the per-function stats to that path as JSON.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

trace_out = os.environ.get("QCBENCH_TRACE_OUT")
if not trace_out:
    from qcbounds.cli import main

    sys.exit(main(sys.argv[1:]))

import json  # noqa: E402

t0 = time.perf_counter()
import qcbounds.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer  # noqa: E402  (bench/ is sys.path[1])

log = tracer.install()
try:
    code = qcbounds.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
finally:
    sys.stdout.flush()
    with open(trace_out, "w") as fh:
        json.dump({"import_s": import_s, "stats": log.stats(), "spans": log.table()}, fh)
sys.exit(code)
