"""Traced child: run one CLI invocation with a span around every public call.

Usage: python3 traced.py TRACE_FILE CLI_ARG...

After importing the package, every public function of each layer module
(its `__all__` plus the `batch_*` kernels) is rebound, at every binding site
in the package's module namespaces, to a wrapper that records a span
(name, start, end, parent). Spans and counters stay in memory and are written
to TRACE_FILE as JSON when the run ends. Nothing inside the package changes;
untraced runs never load this file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

from workloads import LAYERS

import pinvtte.cli


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.support_points = 0
        self.max_index_rows = 0
        self.unit_weights = 0

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        count = _COUNTERS.get(name) or (
            _count_weights if name.startswith("estimator.") else None
        )
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if count is not None:
                count(self, result)
            return result

        return span


def _count_support(rec: Recorder, result) -> None:
    rec.support_points += len(result)


def _count_index(rec: Recorder, result) -> None:
    rec.max_index_rows = max(rec.max_index_rows, len(result))


def _count_weights(rec: Recorder, result) -> None:
    rec.unit_weights += getattr(result, "weights", result).size


_COUNTERS = {
    "design.enumerate_support": _count_support,
    "moments.enumerate_subsets": _count_index,
    "moments.cached_index": _count_index,
}


def public_functions():
    """(layer, name, function) for every public function of every layer."""
    for layer in LAYERS:
        mod = importlib.import_module(f"pinvtte.{layer}")
        names = set(mod.__all__) | {n for n in vars(mod) if n.startswith("batch_")}
        for name in sorted(names):
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield layer, name, fn


def install(rec: Recorder) -> int:
    """Rebind every public function to its span wrapper; return the number
    of binding sites replaced."""
    wrappers = {id(fn): rec.wrap(fn, f"{layer}.{name}") for layer, name, fn in public_functions()}
    sites = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "pinvtte" and not modname.startswith("pinvtte."):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
                sites += 1
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if id(item) in wrappers:
                        val[key] = wrappers[id(item)]
                        sites += 1
    return sites


def span_cost(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    wrapped = Recorder().wrap(noop, "calibration")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    sites = install(rec)
    status = 1
    try:
        status = pinvtte.cli.main(argv)
    finally:
        doc = {
            "binding_sites": sites,
            "names": rec.names,
            "spans": rec.spans,
            "support_points": rec.support_points,
            "max_index_rows": rec.max_index_rows,
            "unit_weights": rec.unit_weights,
            "span_cost_s": span_cost(),
        }
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
