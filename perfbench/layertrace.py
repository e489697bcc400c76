"""Outside-in tracing of ctschro's layers.

``Tracer.install`` wraps the public functions in ``TARGETS`` and rebinds each
wrapper in every ``ctschro`` namespace that holds the original: ``evolve``,
``maximal``, ``kernel`` and ``cli`` import ``lagrange_uniform``,
``refined_cells`` and ``direct_quadrature`` by name, so patching the defining
module alone would miss their calls.  Plain runs never install it.

A span records name, start, end, parent span, operation id, thread and
whether the call raised.  Spans stay in memory and are written out at the
end.  The parent comes from a ``contextvars`` variable.  Pool threads (the
kernel bound sweep) do not inherit the context, so a span that opens there
without a parent takes the innermost span open on the main thread, and
every span takes the operation id set on the tracer: operations run one at
a time.  ``busy_s`` sums span durations over all threads, so it can exceed
wall time; ``self_s`` is busy time minus the part of each span's interval
that its children cover.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import sys
import threading
import time
from functools import wraps

import numpy as np

# (module, function) pairs wrapped by the tracer, in reporting order.
# maximal.witness_minimum is left out: no workload calls it, so every one of
# its metrics would read 0 on every run.
TARGETS = (
    ("_numerics", "lagrange_uniform"),
    ("_numerics", "refined_cells"),
    ("evolve", "direct_quadrature"),
    ("evolve", "propagate_slice"),
    ("evolve", "field_value"),
    ("maximal", "maximal_field"),
    ("maximal", "maximal_ratio"),
    ("kernel", "kernel_eval"),
    ("kernel", "schur_integral"),
    ("kernel", "verify_kernel_bound"),
    ("domain", "build_counterexample"),
    ("domain", "witness_time"),
    ("cli", "run_config"),
)


def label(module: str, func: str) -> str:
    """Metric prefix of a wrapped function (names start with a letter)."""
    return f"{module.lstrip('_')}.{func}"


LABELS = tuple(label(m, f) for m, f in TARGETS)
SPAN_FIELDS = ("calls", "busy_s", "self_s", "errors")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _maximal_field_counts(args, kwargs, result):
    tgrid = _arg(args, kwargs, 4, "tgrid")
    argmax = result.argmax_t
    counts = {"x_nodes": argmax.size,
              "slices": tgrid.times.size,
              "useful_slices": int(np.isin(tgrid.times, argmax).sum()),
              "witness_nodes": 0, "witness_argmax": 0}
    if tgrid.extra_times is not None:
        has = np.isfinite(tgrid.extra_times)
        counts["witness_nodes"] = int(has.sum())
        counts["witness_argmax"] = int((argmax[has] == tgrid.extra_times[has]).sum())
    return counts


# work counts taken at the layer boundary from arguments and results
COUNTERS = {
    "numerics.lagrange_uniform":
        lambda a, k, r: {"queries": np.size(_arg(a, k, 3, "xq"))},
    "numerics.refined_cells": lambda a, k, r: {"nodes": r[0].size},
    "evolve.propagate_slice": lambda a, k, r: {"samples": r.n_samples},
    "maximal.maximal_field": _maximal_field_counts,
}

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    def __init__(self):
        self.spans = []           # (id, name, t0_ns, t1_ns, parent, op, thread, error)
        self.counts = {}          # "label.count" -> total
        self.op = None
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_open = None    # innermost span open on the main thread
        self._lock = threading.Lock()
        self._rebound = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        origs = [(label(m, f), getattr(importlib.import_module(f"ctschro.{m}"), f))
                 for m, f in TARGETS]
        mods = [m for n, m in sys.modules.items()
                if n == "ctschro" or n.startswith("ctschro.")]
        for name, orig in origs:
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = _CURRENT.get()
            on_main = threading.get_ident() == self._main
            if parent is None and not on_main:
                parent = self._main_open
            token = _CURRENT.set(sid)
            if on_main:
                outer, self._main_open = self._main_open, sid
            error = True
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                t1 = time.perf_counter_ns()
                _CURRENT.reset(token)
                if on_main:
                    self._main_open = outer
                with self._lock:
                    self.spans.append((sid, name, t0, t1, parent, self.op,
                                       threading.get_ident(), error))
            if counter is not None:
                extra = counter(args, kwargs, result)
                with self._lock:
                    for key, val in extra.items():
                        full = f"{name}.{key}"
                        self.counts[full] = self.counts.get(full, 0) + int(val)
            return result
        return traced

    # -- reduction --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, busy_s, self_s and errors per wrapped function."""
        children = {}
        for span in self.spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append((span[2], span[3]))
        out = {lab: dict.fromkeys(SPAN_FIELDS, 0) for lab in LABELS}
        for sid, name, t0, t1, _, _, _, error in self.spans:
            m = out[name]
            m["calls"] += 1
            m["busy_s"] += (t1 - t0) * 1e-9
            m["self_s"] += (t1 - t0 - _covered(children.get(sid, ()), t0, t1)) * 1e-9
            m["errors"] += int(error)
        return {f"{lab}.{key}": val for lab, m in out.items()
                for key, val in m.items()}

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "thread",
                "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
