"""In-memory span tracing of the qcbounds modules, installed from outside.

`install()` replaces every public function defined in a qcbounds module by
a wrapper that records one span per call: name, start, end and parent
span.  The wrapper is put in every place that holds the function: the
defining module, every module that imported the name with
`from .x import f` (so `trace.bessel_j1` and `verify.kloosterman_direct`
are traced too) and module-level dicts such as `verify.SUITES`.

A span is named `<module>.<function>` after the defining module.  Self
time is the span's duration minus the time its direct children cover.
Nothing under `src/` is changed; the wrappers live only in the traced
process.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import time
import types
from array import array

PACKAGE = "qcbounds"
MODULES = (
    "trace", "kernels", "bessel", "arith", "bounds",
    "runge", "isogeny", "compgroup", "verify", "cli",
)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _row_key(args, kwargs):
    m, c = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "c")
    return (m % c, c) if c >= 1 else None


def _series_cap(fn, name, cap_arg):
    """Term cap of A_numeric (t_max) or B_numeric (d coprime to N up to d_max)."""
    sig = inspect.signature(fn)

    def cap(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        limit = bound.arguments[cap_arg]
        if name == "trace.A_numeric":
            return limit
        N = bound.arguments["N"]
        return sum(1 for d in range(1, limit + 1) if math.gcd(d, N) == 1)

    return cap


# Per-call observations taken from the arguments before the span opens.
# A and B sum one J1 array per term, so a span's terms are its direct
# bessel_j1 children; stop-on-cap means terms == cap.
def _observers(name, fn):
    if name == "bessel.bessel_j1":
        return lambda a, k: _size(_arg(a, k, 0, "x"))
    if name == "kernels.series_kloosterman":
        return lambda a, k: _size(_arg(a, k, 4, "n"))
    if name == "kernels.kloosterman_row":
        return _row_key
    if name == "trace.A_numeric":
        return _series_cap(fn, name, "t_max")
    if name == "trace.B_numeric":
        return _series_cap(fn, name, "d_max")
    return None


# Functions whose return value is kept (by reference) for end-of-run stats.
_KEEP_RESULT = {"compgroup.smith_normal_form"}


def _max_bits(snf) -> int:
    return max(
        (abs(int(x)).bit_length() for mat in (snf.left, snf.right) for row in mat for x in row),
        default=0,
    )


class SpanLog:
    """Spans kept in flat arrays; `stack` holds the open span indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.errors: dict[int, int] = {}
        self.observed: dict[int, object] = {}
        self.results: dict[int, object] = {}

    def intern(self, name: str) -> int:
        self.names.append(name)
        self.errors[len(self.names) - 1] = 0
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        observe = _observers(name, fn)
        keep = name in _KEEP_RESULT
        clock = time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, errors, observed, results = self.stack, self.errors, self.observed, self.results

        def traced(*args, **kwargs):
            idx = len(starts)
            if observe is not None:
                observed[idx] = observe(args, kwargs)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                errors[nid] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if keep:
                results[idx] = out
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-function calls, self_s and errors, plus the observed extras."""
        n = len(self.start)
        child = [0.0] * n
        j1_children: dict[int, int] = {}
        j1 = self.names.index("bessel.bessel_j1") if "bessel.bessel_j1" in self.names else -1
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                if self.name[i] == j1:
                    j1_children[p] = j1_children.get(p, 0) + 1
        out: dict[str, dict[str, float]] = {}
        seen_keys: set = set()
        for i in range(n):
            fname = self.names[self.name[i]]
            s = out.get(fname)
            if s is None:
                s = out[fname] = {"calls": 0, "self_s": 0.0, "errors": 0}
            s["calls"] += 1
            s["self_s"] += (self.end[i] - self.start[i]) - child[i]
            obs = self.observed.get(i)
            if fname in ("bessel.bessel_j1", "kernels.series_kloosterman"):
                s["elements"] = s.get("elements", 0) + obs
            elif fname == "kernels.kloosterman_row":
                s["repeats"] = s.get("repeats", 0) + (obs in seen_keys)
                seen_keys.add(obs)
            elif fname in ("trace.A_numeric", "trace.B_numeric"):
                s["capped"] = s.get("capped", 0) + (j1_children.get(i, 0) >= obs)
            if i in self.results:
                s["max_bits"] = max(s.get("max_bits", 0), _max_bits(self.results[i]))
        for nid, count in self.errors.items():
            if count:
                out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0, "errors": 0})
                out[self.names[nid]]["errors"] = count
        return out

    def table(self) -> dict:
        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_s": [round(x - t0, 7) for x in self.start],
            "end_s": [round(x - t0, 7) for x in self.end],
        }


def merge_stats(total: dict, part: dict) -> dict:
    """Add one process's per-function stats into `total` (max for max_bits)."""
    for fname, s in part.items():
        acc = total.setdefault(fname, {})
        for key, value in s.items():
            if key == "max_bits":
                acc[key] = max(acc.get(key, 0), value)
            else:
                acc[key] = acc.get(key, 0) + value
    return total


def _traceable(obj) -> bool:
    return (
        isinstance(obj, types.FunctionType)
        and obj.__module__.startswith(PACKAGE + ".")
        and not obj.__name__.startswith("_")
    )


def install() -> SpanLog:
    """Wrap every public qcbounds function wherever the package holds it."""
    log = SpanLog()
    wrappers: dict[int, object] = {}

    def wrapper_for(fn):
        w = wrappers.get(id(fn))
        if w is None:
            name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
            w = wrappers[id(fn)] = log.wrap(fn, name)
        return w

    modules = [importlib.import_module(PACKAGE)]
    modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if _traceable(obj):
                setattr(mod, attr, wrapper_for(obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if _traceable(value):
                        obj[key] = wrapper_for(value)
    return log


def write_spans(path: str, tables: list[dict]) -> None:
    """Write span tables (one per traced process) as gzipped JSON."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"processes": tables}, fh, separators=(",", ":"))
