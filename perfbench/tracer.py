"""Outside-in span tracer for the memheat modules.

A span is installed by rebinding a function's name in the module that
*calls* it: ``solver``, ``experiments`` and ``cli`` import what they use by
name, so ``memheat.solver.advance_history`` is the binding the stepper
reads. Only calls that cross a module boundary are traced, which keeps
same-module helpers (``k2_norm_sq`` -> ``memory_norm_sq``) inside their
caller's span. ``SAME_MODULE`` names the few in-module calls the benchmark
needs as spans of their own: the step functions ``evolve`` drives and the
checkpoint write.

Spans are held in memory; ``aggregate`` turns one run's spans into
per-function calls, total and self time (duration minus the time covered
by direct child spans).
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter

LAYERS = ("domain", "memory", "physics", "solver", "experiments", "cli")

SAME_MODULE = {"solver": ("step_peps", "step_p0"),
               "cli": ("checkpoint_save",)}


def _solve_key(result, c0, c_a, rhs, d, alpha, beta):
    return (id(d), float(c0), float(c_a), float(alpha), float(beta))


def _transport_bytes(result, phi, u_new, dt, u_prev=None):
    # computed, not measured: read the history and the inflow fields, write
    # the new history; cache behaviour is ignored
    fields = 2 if u_prev is not None else 1
    return 8 * (2 * (phi.bulk.size + phi.boundary.size)
                + fields * (u_new.bulk.size + u_new.boundary.size))


def _step_eps(result, state, cfg):
    return cfg.eps


def _recorded_rows(result, y0, cfg):
    return int(result.times.size)


def _file_size(result, state, path, canon, records=None):
    return os.path.getsize(path)


# span name -> f(result, *args, **kwargs), stored as the span's info
INFO = {
    "domain.solve_wentzell_shifted": _solve_key,
    "memory.advance_history": _transport_bytes,
    "solver.step_peps": _step_eps,
    "solver.step_p0": _step_eps,
    "solver.evolve": _recorded_rows,
    "cli.checkpoint_save": _file_size,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Collects spans while installed; ``spans`` is cleared by ``reset``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(result, *args, **kwargs)
            return result

        return traced

    def install(self, package) -> None:
        """Rebind every cross-module memheat function in each caller module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                same = attr in SAME_MODULE.get(layer, ())
                if owner not in LAYERS or (owner == layer and not same):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{owner}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and the infos."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "infos": []})
        dur = s.end - s.start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
        if s.info is not None:
            row["infos"].append((s.info, dur))
    return out
