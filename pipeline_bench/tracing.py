"""Spans and counters recorded from outside the package.

The benchmark wraps its own top-level calls with ``Tracer.call``.  Calls the
package makes internally are seen by replacing module attributes: the
package looks those names up at call time, so no source edit is needed.  A
probe whose module or attribute no longer exists is reported as absent; the
run goes on without it.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    t0: float
    t1: float
    ancestors: tuple[str, ...]

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """In-memory spans and counts for one traced phase.

    A call nested inside an open span of the same name is not recorded
    again, so every span is the outermost one of its name.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        if name in self._stack:
            return fn(*args, **kwargs)
        ancestors = tuple(self._stack)
        self._stack.append(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append(Span(name, t0, t1, ancestors))

    def _replace(self, module_name: str, attr: str, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, functools.wraps(original)(make(original)))
        self._undo.append((module, attr, original))

    def wrap(self, module_name: str, attr: str, span_name: str) -> None:
        """Record a span around every call of ``module_name.attr``."""
        self._replace(module_name, attr,
                      lambda fn: lambda *a, **k: self.call(span_name, fn, *a, **k))

    def count(self, module_name: str, attr: str, key: str, size=None) -> None:
        """Add ``size(args, kwargs)`` (or 1) to ``counts[key]`` on every call."""
        def make(fn):
            def counted(*args, **kwargs):
                self.counts[key] += 1 if size is None else size(args, kwargs)
                return fn(*args, **kwargs)
            return counted
        self._replace(module_name, attr, make)

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def durations(self, name: str) -> list[float]:
        return [s.ms for s in self.spans if s.name == name]


# Calls the package makes internally, by the module attribute it looks up.
INTERNAL_SPANS = (
    ("ghzdistill.decomposition", "classify", "decomposition.classify"),
    ("ghzdistill.monotone", "classify", "decomposition.classify"),
    ("ghzdistill.monotone", "decompose", "decomposition.decompose"),
    ("ghzdistill.monotone", "optimal_probability_value", "solver.max_1d"),
    ("ghzdistill.solver", "solve_coefficients", "solver.solve_coefficients"),
    ("ghzdistill.solver", "apply_local", "tensor.apply_local"),
    ("ghzdistill.simulate", "apply_local", "tensor.apply_local"),
    ("ghzdistill.monotone", "apply_local", "tensor.apply_local"),
)

# The 1-D objective kernels: calls, and points evaluated.
KERNEL_COUNTERS = (
    ("objective_value", "kernels.scalar_calls", None),
    ("objective_batch", "kernels.batch_points",
     lambda a, k: int(np.size(a[5] if len(a) > 5 else k["xs"]))),
    ("grid_max", "kernels.grid_points",
     lambda a, k: int(a[7] if len(a) > 7 else k["n"])),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, span_name in INTERNAL_SPANS:
        tracer.wrap(module_name, attr, span_name)
    for attr, key, size in KERNEL_COUNTERS:
        tracer.count("ghzdistill.kernels", attr, key, size)
