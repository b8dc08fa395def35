"""The three workloads: inputs drawn from a seed, one operation, a reference check.

Each workload is a closed loop with one client: its operations run one
after another in one interpreter, and a run repeats the batch in fresh
interpreters (cli-batch draws new commands for each pass).  The seed picks the inputs from a fixed domain; the
domains are stratified so that every seed gives about the same amount
of work, which keeps the timings of different seeds comparable.

Every output is summarized after the timed loop and compared with
`references.json` (written by `make_references.py` from the same
domains): verdicts, invariant factors, generator images, suite checks,
CLI exit codes and `--json` bytes exactly; numeric values by interval
overlap, with no certificate looser than its reference.

qcbounds is imported only inside the functions, after the worker has
started its set-up clock.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCES = os.path.join(BENCH_DIR, "references.json")
CLI_ENTRY = os.path.join(BENCH_DIR, "cli_entry.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TRACE_ENV = "QCBENCH_TRACE_OUT"


class Op(NamedTuple):
    label: str  # names the operation in failure reports
    key: str  # reference key
    args: tuple


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


class Workload:
    """Defaults for the hooks only some workloads need."""

    def layer_extras(self, outputs: list) -> dict[str, float]:
        """Per-module metrics read from the outputs of a traced pass."""
        return {}

    def child_traces(self, outputs: list) -> list[dict]:
        """Trace files written by traced child processes."""
        return []


class NumericCertify(Workload):
    """`trace.certify_numeric` at default caps, kernel caches cold at start.

    Every fundamental D in 15..31 is certified once per batch, in
    ascending D, so the batch shares cofactor row tables the same way
    every time; the seed picks each D's prime among the first four
    admissible primes above the threshold 50 D^(1/4) log D, no prime twice.
    """

    name = "numeric-certify"
    nominal_pass_s = 24.0
    op_limit_s = 60.0
    PRIMES_PER_D = 4
    LOOSER_TOL = 1e-3  # relative slack before a larger error_bound counts as looser

    def domain(self) -> list[tuple[int, list[int]]]:
        from qcbounds import isogeny
        from qcbounds.arith import fundamental_discriminants, next_prime

        out = []
        for D in fundamental_discriminants(15, 31):
            p = next_prime(math.floor(isogeny.nonsplit_threshold(D)))
            primes = []
            while len(primes) < self.PRIMES_PER_D:
                if D % p:
                    primes.append(p)
                p = next_prime(p)
            out.append((D, primes))
        return out

    def make_ops(self, seed: int, tiny: bool, pass_index: int = 0) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        used: set[int] = set()
        for D, primes in self.domain()[: 1 if tiny else None]:
            # Two D at one prime would share every B-series row table, which
            # halves the second certificate's cost; distinct primes keep the
            # work of a batch the same for every seed.
            choices = [p for p in primes if p not in used]
            p = choices[rng.randrange(len(choices))]
            used.add(p)
            ops.append(Op(f"certify_numeric(D={D}, p={p})", f"{D},{p}", (D, p)))
        return ops

    def run(self, op: Op, limit: float, traced: bool):
        from qcbounds import trace
        from qcbounds.arith import make_character

        D, p = op.args
        return trace.certify_numeric(p, make_character(D))

    def summarize(self, out) -> dict:
        return {
            "verdict": out.verdict,
            "value": out.components["value"],
            "error_bound": out.components["error_bound"],
            "lower_bound": out.lower_bound,
        }

    def check(self, got: dict, ref: dict) -> str | None:
        if got["verdict"] != ref["verdict"]:
            return f"verdict {got['verdict']} != {ref['verdict']}"
        lo, hi = got["value"] - got["error_bound"], got["value"] + got["error_bound"]
        rlo, rhi = ref["value"] - ref["error_bound"], ref["value"] + ref["error_bound"]
        if hi < rlo or lo > rhi:
            return f"value interval [{lo:.6g}, {hi:.6g}] misses [{rlo:.6g}, {rhi:.6g}]"
        if got["error_bound"] > ref["error_bound"] * (1.0 + self.LOOSER_TOL):
            return f"error_bound {got['error_bound']:.6g} looser than {ref['error_bound']:.6g}"
        return None

    def layer_extras(self, outputs: list) -> dict[str, float]:
        return {"trace.certify_numeric.error_bar": sum(
            o.components["error_bound"] for o in outputs if o is not None)}

    def reference_ops(self) -> list[Op]:
        return [Op(f"certify_numeric(D={D}, p={p})", f"{D},{p}", (D, p))
                for D, primes in self.domain() for p in primes]


class VerifyAll(Workload):
    """`verify.run_suite("all")` at the suite's default seed, the release gate
    as `qcbounds verify --suite all` runs it.

    The benchmark seed does not change this workload's input: at other suite
    seeds the gate itself can fail (a runge near-inf check) or run past the
    time limit (a compgroup SNF), and a benchmark input must be one on which
    no operation fails.
    """

    name = "verify-all"
    nominal_pass_s = 9.5
    op_limit_s = 60.0

    def make_ops(self, seed: int, tiny: bool, pass_index: int = 0) -> list[Op]:
        from qcbounds import verify

        suite = "runge" if tiny else "all"
        return [Op(f"run_suite({suite!r})", suite, (suite, verify.DEFAULT_SEED))]

    def run(self, op: Op, limit: float, traced: bool):
        from qcbounds import verify

        suite, seed = op.args
        return verify.run_suite(suite, seed=seed)

    def summarize(self, out) -> dict:
        return {
            "suites": {r.name: {"checks": r.checks, "passed": r.passed} for r in out},
            "failures": [f"{r.name}: {msg}" for r in out for msg in r.failures[:3]],
        }

    def check(self, got: dict, ref: dict) -> str | None:
        if got["suites"] != ref["suites"]:
            return f"suites {got['suites']} != {ref['suites']}; {got['failures'][:3]}"
        return None

    def layer_extras(self, outputs: list) -> dict[str, float]:
        extras: dict[str, float] = {}
        for out in outputs:
            for r in out or ():
                extras[f"verify.{r.name}.s"] = extras.get(f"verify.{r.name}.s", 0.0) + r.elapsed_s
                extras[f"verify.{r.name}.checks"] = extras.get(f"verify.{r.name}.checks", 0) + r.checks
        return extras

    def reference_ops(self) -> list[Op]:
        from qcbounds import verify

        return [Op(f"run_suite({suite!r})", suite, (suite, verify.DEFAULT_SEED))
                for suite in ("all", "runge")]


class CliBatch(Workload):
    """Sequential `qcbounds <command> ... --json` processes of cheap commands,
    drawn from their documented domains, the same number of each command per pass."""

    name = "cli-batch"
    nominal_pass_s = 5.0
    op_limit_s = 30.0
    PER_COMMAND = 3
    _trace_seq = itertools.count()
    RE_GRID = ("-1.0", "-0.75", "-0.5", "-0.25", "0.0", "0.25", "0.5", "0.75", "1.0")
    IM_GRID = ("0.05", "0.1", "0.25", "0.5", "1.0", "2.0")

    def domain(self) -> dict[str, list[list[str]]]:
        from qcbounds import isogeny
        from qcbounds.arith import fundamental_discriminants, is_prime, next_prime

        def threshold_prime(D: int) -> int:
            p = next_prime(math.floor(isogeny.nonsplit_threshold(D)))
            while D % p == 0:
                p = next_prime(p)
            return p

        small_primes = [11] + [p for p in range(17, 200) if is_prime(p)]
        return {
            "certify": [["certify", "--disc", str(D), "--prime", str(threshold_prime(D))]
                        for D in fundamental_discriminants(15, 403)],
            "thresholds": [["thresholds", "--disc", str(D)]
                           for D in fundamental_discriminants(3, 403)],
            "component-group": [["component-group", "--prime", str(p), "--ram", str(e)]
                                for p in small_primes for e in (1, 2, 3)],
            "kloosterman": [["kloosterman", str(m), str(n), str(c), "--fast"]
                            for m in (1, 2) for n in (1, 2) for c in range(1, 101)],
            "runge-bound": [["runge-bound", "--prime", str(p)]
                            for p in range(2, 1000) if is_prime(p)],
            "reduce-tau": [["reduce-tau", f"--re={re}", f"--im={im}", "--prime", str(p)]
                           for re in self.RE_GRID for im in self.IM_GRID for p in (0, 5, 7, 11, 13)],
            "character": [["character", str(D), str(n)]
                          for D in fundamental_discriminants(3, 100) for n in range(1, 11)],
        }

    def make_ops(self, seed: int, tiny: bool, pass_index: int = 0) -> list[Op]:
        """Each pass draws its own commands, so a run has one latency sample per
        command (enough for a tail) instead of a few repeats of the same commands."""
        rng = random.Random(f"{seed}:{pass_index}")
        picks = [argv for argvs in self.domain().values()
                 for argv in rng.sample(argvs, 1 if tiny else self.PER_COMMAND)]
        rng.shuffle(picks)
        return [Op("qcbounds " + " ".join(argv), " ".join(argv), tuple(argv)) for argv in picks]

    def run(self, op: Op, limit: float, traced: bool):
        env = dict(os.environ)
        env.pop(TRACE_ENV, None)
        trace_path = None
        if traced:
            trace_path = os.path.join(OUT_DIR, f"cli-{os.getpid()}-{next(self._trace_seq)}.json")
            env[TRACE_ENV] = trace_path
        proc = subprocess.run(
            [sys.executable, CLI_ENTRY, *op.args, "--json"],
            capture_output=True, timeout=limit, env=env, cwd=ROOT,
        )
        return proc.returncode, proc.stdout, trace_path

    def summarize(self, out) -> dict:
        code, stdout, _ = out
        return {"exit": code, "sha256": _digest(stdout)}

    def check(self, got: dict, ref: dict) -> str | None:
        return None if got == ref else f"exit/bytes {got} != {ref}"

    def child_traces(self, outputs: list) -> list[dict]:
        """Read and remove the trace files the traced CLI processes wrote."""
        traces = []
        for out in outputs:
            path = out[2] if out is not None else None
            if path and os.path.exists(path):
                with open(path) as fh:
                    traces.append(json.load(fh))
                os.remove(path)
        return traces

    def reference_ops(self) -> list[Op]:
        return [Op("qcbounds " + " ".join(argv), " ".join(argv), tuple(argv))
                for argvs in self.domain().values() for argv in argvs]


WORKLOADS = {w.name: w for w in (NumericCertify(), VerifyAll(), CliBatch())}
