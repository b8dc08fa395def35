"""Re-measure the rows of the ROADMAP "Baseline" section on this machine.

`compare()` runs `python3 bench/baseline.py` in a fresh interpreter (so
imports and kernel caches are cold, as in the ROADMAP runs), times the
CLI cold start, and labels each row as reproduced when the measurement
is within the ROADMAP's stated +-15% noise, contradicted otherwise.
Rows too slow to re-measure in a report are listed as not measured.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NOISE = 0.15

# (row, ROADMAP seconds, key of the measurement below)
ROWS = (
    ("import qcbounds", 0.21, "import_s"),
    ("CLI cold start", 0.32, "cli_cold_start_s"),
    ("certify --mode numeric at (15, 271)", 2.9, "certify_numeric_15_271_s"),
    ("component_group(997, 2)", 0.09, "component_group_997_s"),
    ("component_group(2003, 2)", 0.70, "component_group_2003_s"),
    ("component_group(4001, 2)", 4.98, "component_group_4001_s"),
    ("contradiction_search('borel')", 0.5, "contradiction_borel_s"),
    ("contradiction_search('cartan')", 0.5, "contradiction_cartan_s"),
    ("verify weil", 2.6, "suite_weil_s"),
    ("verify tails", 1.7, "suite_tails_s"),
    ("verify envelope", 1.6, "suite_envelope_s"),
    ("verify certify-grid", 0.8, "suite_certify-grid_s"),
    ("verify compgroup", 0.4, "suite_compgroup_s"),
    ("verify trig", 0.2, "suite_trig_s"),
    ("verify twisted", 0.13, "suite_twisted_s"),
    ("verify runge", 0.09, "suite_runge_s"),
)
NOT_MEASURED = (
    ("tier-1 wall time", "25-34 s, hangs in 2 of 5 runs"),
    ("certify --mode numeric at (403, 811)", "157 s, indeterminate"),
    ("kloosterman_row share of new_plus_pairing(271, D=15)", "about 45%"),
)


def _measure() -> dict[str, float]:
    out = {}
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qcbounds  # noqa: F401

    out["import_s"] = time.perf_counter() - t0
    from qcbounds import compgroup, isogeny, trace, verify
    from qcbounds.arith import make_character

    def timed(key, fn, *args, **kwargs):
        t = time.perf_counter()
        fn(*args, **kwargs)
        out[key] = time.perf_counter() - t

    timed("certify_numeric_15_271_s", trace.certify_numeric, 271, make_character(15))
    for p in (997, 2003, 4001):
        timed(f"component_group_{p}_s", compgroup.component_group, p, 2)
    for case in ("borel", "cartan"):
        timed(f"contradiction_{case}_s", isogeny.contradiction_search, case)
    for name in verify.SUITES:
        timed(f"suite_{name}_s", verify.run_suite, name)
    return out


def _cli_cold_start(samples: int = 5) -> float:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_entry.py"), "runge-bound", "--prime", "11",
           "--json"]
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        subprocess.run(cmd, capture_output=True, check=True, cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def compare() -> list[dict]:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], capture_output=True,
                          text=True, check=True, cwd=ROOT, timeout=170)
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    measured["cli_cold_start_s"] = _cli_cold_start()
    rows = []
    for row, roadmap, key in ROWS:
        value = measured[key]
        ratio = value / roadmap
        verdict = "reproduces" if abs(ratio - 1.0) <= NOISE else f"contradicts ({ratio:.2f}x)"
        rows.append({"row": row, "roadmap": f"{roadmap} s", "measured": f"{value:.3f} s",
                     "verdict": verdict})
    for row, roadmap in NOT_MEASURED:
        rows.append({"row": row, "roadmap": roadmap, "measured": "-", "verdict": "not measured"})
    return rows


if __name__ == "__main__":
    print(json.dumps(_measure()))
