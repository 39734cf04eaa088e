"""Spans around the public functions of ``jcm4``, for the traced run.

:meth:`Tracer.install` replaces every binding of a public function of the
layer modules (``fock``, ``dynamics``, ``observables``, ``catlab``, and
``cli.main``) with a wrapper, wherever the name is bound in the package: for
example ``evolve`` in ``dynamics``, ``catlab`` and ``jcm4`` itself.  Each
call records a span (name, parent span, operation id, start, end).  Spans
of one operation stay in memory until :meth:`Tracer.fold` turns them into
per-operation totals; a span's self time is its duration minus that of its
child spans.  Counters for work done are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fock", "dynamics", "observables", "catlab", "cli")
SUPPORT_FLOOR = 1e-17  # an amplitude counts as support above this share of the peak


def _coherent_inputs(tracer, fn, args, kwargs, result):
    tail = args[2] if len(args) > 2 else kwargs.get("tail_tol", fn.__defaults__[0])
    tracer.coherent_inputs.add((complex(args[0]), int(args[1]), float(tail)))


def _evolve_entries(tracer, fn, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    tracer.counts["dynamics.evolve.entries"] += len(result.excited)
    tracer.counts["dynamics.evolve.support"] += tracer.support_of(params, result)


def _q_grid_terms(tracer, fn, args, kwargs, result):
    tracer.counts["observables.q_grid.terms"] += result.nx * result.ny * len(args[0].u)


COUNTERS = {
    "fock.coherent_state": _coherent_inputs,
    "dynamics.evolve": _evolve_entries,
    "observables.q_grid": _q_grid_terms,
}


class Tracer:
    """Span recorder for one workload process."""

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []  # [name, parent index, op, start, end]
        self._stack: list[int] = []
        self.names: list[str] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.coherent_inputs: set = set()
        self._support: dict = {}

    def install(self, package) -> None:
        """Wrap each public layer function at every binding in ``package``."""
        wrappers = {}
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS or (layer == "cli" and obj.__name__ != "main"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, name, wrappers[obj])
        self.names = sorted(w.span_name for w in wrappers.values())

    def _wrap(self, span_name, fn):
        counter = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, self._stack[-1] if self._stack else -1, self.op, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, fn, args, kwargs, result)
            return result

        traced.span_name = span_name
        return traced

    def support_of(self, params, state) -> int:
        """Entries of |C_n| above SUPPORT_FLOOR of the peak, read off the
        first evolved state for each ``params`` (|C_n|^2 = |e_n|^2 + |g_{n+k}|^2)."""
        if params not in self._support:
            k = state.k
            p = np.abs(state.excited) ** 2
            p[:-k] += np.abs(state.ground[k:]) ** 2
            self._support[params] = int(np.count_nonzero(p > SUPPORT_FLOOR ** 2 * p.max()))
        return self._support[params]

    def fold(self) -> dict[str, float]:
        """Per-layer metrics of the operation just run; clears its spans."""
        child = [0.0] * len(self.spans)
        metrics: defaultdict[str, float] = defaultdict(float)
        for name in self.names:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.self_s"] = 0.0
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = 0.0
        for i in range(len(self.spans) - 1, -1, -1):
            name, parent, _, start, end = self.spans[i]
            duration = end - start
            if parent >= 0:
                child[parent] += duration
            own = duration - child[i]
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += own
            metrics[f"{name.partition('.')[0]}.self_s"] += own
        calls = metrics["fock.coherent_state.calls"]
        metrics["fock.coherent_state.useful_ratio"] = (
            len(self.coherent_inputs) / calls if calls else 0.0)
        entries = self.counts["dynamics.evolve.entries"]
        metrics["dynamics.evolve.entries"] = entries
        metrics["dynamics.evolve.support_ratio"] = (
            self.counts["dynamics.evolve.support"] / entries if entries else 0.0)
        metrics["observables.q_grid.terms"] = self.counts["observables.q_grid.terms"]
        self.spans.clear()
        self.counts.clear()
        self.coherent_inputs.clear()
        return dict(metrics)
