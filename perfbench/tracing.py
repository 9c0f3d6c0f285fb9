"""Spans around the public functions of every xyzent module.

`instrument` wraps each public function of the layer modules and
rebinds the wrapper under every name that refers to the original in
any xyzent module, so calls through `from .x import y` bindings (for
example `eigensystem` inside states, limits and meanfield) are seen
too.  Spans (name, start, end, parent span, op id) are kept in memory
and written out when the traced run ends; a layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("model", "states", "entanglement", "criteria", "limits", "meanfield", "linalg", "cli")

#: Called once per CSV value; counted, not spanned, so their time stays
#: in the cmd_* self time ("loops, formatting, writes").
COUNT_ONLY = frozenset({"cli.fmt"})

#: cli spans that are argument parsing and dispatch, not command work.
CLI_PARSE = frozenset({"cli.main", "cli.build_parser"})

#: Functions whose calls and self time are reported one by one.
FUNCTIONS = (
    "model.eigensystem",
    "states.thermal_mixture",
    "states.thermal_probabilities",
    "entanglement.separability_exact",
    "entanglement.entanglement_of_formation",
    "criteria.disorder_check",
    "criteria.entropic_check",
    "limits.limit_temperatures",
    "limits.entangled_intervals",
    "limits.limit_temperature",
    "meanfield.critical_temperature",
    "meanfield.solve_mf",
)


def metric_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    spec = [("setup.numpy_s", "s"), ("setup.scipy_s", "s"), ("setup.xyzent_s", "s")]
    for fn in FUNCTIONS:
        spec += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
        if fn == "states.thermal_probabilities":
            spec.append((f"{fn}.points", "count"))
        if fn == "meanfield.solve_mf":
            spec += [(f"{fn}.sweeps", "count"), (f"{fn}.converged_ratio", "ratio")]
    spec.append(("meanfield.solve_mf_per_tc", "calls/tc"))
    spec += [(f"{layer}.self_s", "s") for layer in LAYERS if layer not in ("linalg", "cli")]
    spec += [
        ("linalg.calls", "count"),
        ("cli.self_s", "s"),
        ("cli.parse_self_s", "s"),
        ("cli.fmt.calls", "count"),
        ("cli.output_bytes", "bytes"),
        ("trace.ops", "count"),
        ("trace.items", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return spec


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        #: [name, start, end, parent span id (-1 for none), op id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _points(counters, args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["temperature"]
    counters["states.thermal_probabilities.points"] += int(np.size(t))


def _solve(counters, args, kwargs, result):
    counters["meanfield.solve_mf.sweeps"] += result.iterations
    counters["meanfield.solve_mf.converged"] += int(result.converged)


def _tc(counters, args, kwargs, result):
    method = args[1] if len(args) > 1 else kwargs.get("method", "closed")
    if method == "numeric" and result.feasible:
        counters["meanfield.numeric_tc"] += 1


_AFTER = {
    "states.thermal_probabilities": _points,
    "meanfield.solve_mf": _solve,
    "meanfield.critical_temperature": _tc,
}


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def instrument(tracer: Tracer):
    """Wrap every layer's public functions; returns a function that
    restores the originals."""
    import xyzent.cli  # noqa: F401  (loads every layer module)

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"xyzent.{layer}"]
        for name in public_functions(module):
            fn = getattr(module, name)
            full = f"{layer}.{name}"
            wrap = tracer.count if full in COUNT_ONLY else tracer.wrap
            wrappers[id(fn)] = (fn, wrap(full, fn))

    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "xyzent" and not mod_name.startswith("xyzent."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, hit[1])

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for sid, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function and per-layer counts and self times from the spans."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    c = tracer.counters
    m = {}
    for fn in FUNCTIONS:
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = self_s[fn]
    m["states.thermal_probabilities.points"] = c["states.thermal_probabilities.points"]
    solves = calls["meanfield.solve_mf"]
    m["meanfield.solve_mf.sweeps"] = c["meanfield.solve_mf.sweeps"]
    m["meanfield.solve_mf.converged_ratio"] = c["meanfield.solve_mf.converged"] / solves if solves else 0.0
    tcs = c["meanfield.numeric_tc"]
    m["meanfield.solve_mf_per_tc"] = solves / tcs if tcs else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    m["linalg.calls"] = sum(v for k, v in calls.items() if k.startswith("linalg."))
    m["cli.parse_self_s"] = sum(self_s[k] for k in CLI_PARSE)
    m["cli.self_s"] -= m["cli.parse_self_s"]
    m["cli.fmt.calls"] = c["cli.fmt"]
    m["trace.spans"] = len(tracer.spans)
    return m


def import_times(stderr: str) -> dict[str, float]:
    """setup.{numpy,scipy,xyzent}_s from `python -X importtime` output.

    numpy and scipy are the cumulative times of their outermost import
    entries; xyzent is the cumulative time of the outermost xyzent
    entries minus those two (its own modules plus the stdlib it pulls in).
    """
    entries = []  # (depth, package, cumulative us) in completion order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:") :].split("|")
        if not cum.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum)))
    totals: Counter = Counter()
    stack: list[tuple[int, str]] = []  # (depth, top-level package) of the ancestors
    for depth, name, cum in reversed(entries):  # reversed completion order = preorder
        while stack and stack[-1][0] >= depth:
            stack.pop()
        above = {top for _, top in stack}
        top = name.split(".")[0]
        if top == "xyzent" and top not in above:
            totals[top] += cum
        elif top in ("numpy", "scipy") and not {"numpy", "scipy"} & above:
            totals[top] += cum  # scipy's own numpy imports stay in scipy
        stack.append((depth, top))
    return {
        "setup.numpy_s": totals["numpy"] * 1e-6,
        "setup.scipy_s": totals["scipy"] * 1e-6,
        "setup.xyzent_s": (totals["xyzent"] - totals["numpy"] - totals["scipy"]) * 1e-6,
    }
