"""Span tracing installed from outside the library, for the traced run.

The tracer replaces module attributes with timing wrappers:

* every attribute of a ``statgeom`` module that is bound to a function
  named in some module's ``__all__`` (so the copies made by
  ``from .linalg import matrix_sqrt`` are wrapped too), attributed to the
  layer whose module defines the function;
* the ``numpy.linalg`` decompositions, as the ``lapack`` layer;
* ``minimize_scalar`` as bound in ``statgeom.billiard``, counted only: its
  optimizer loop is billiard's own work and stays in billiard's self time.

Library code looks these names up at call time, so the wrappers see every
call.  A name absent at some commit is skipped and reports zero calls.
Spans stay in memory until the run ends; ``remove`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

from metrics import self_times

LAYERS = (
    "lapack", "linalg", "monotone", "means", "bures", "measurement",
    "billiard", "classical", "sampling", "serialize",
)
LAPACK = ("eigh", "eigvalsh", "svd", "det", "qr")

# Helpers cheap enough that a span around them would cost about as much
# as the call itself; their time stays in the caller's self time.
UNWRAPPED = frozenset({"hermitian_part", "hs_inner", "hs_norm", "is_hermitian"})

# Counters read off a wrapped function's result and its span duration in
# seconds: name -> fn(result, seconds) -> (counter, amount).
RESULT_COUNTERS = {
    "bounce_points": lambda r, s: ("billiard.contacts", len(r)),
    "verify_billiard_theorem": lambda r, s: ("billiard.flagged", int(r["flagged"])),
    "run_criterion": lambda r, s: (f"acceptance.criterion_{r['criterion']}_s", s),
}


class Tracer:
    """Spans and counters for one traced pass.

    A span is ``(name, layer, start, end, parent, request, dim, error)``;
    ``parent`` indexes the enclosing span (-1 at the top).  The caller sets
    ``request`` and ``dim`` before each request it issues.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.request = -1
        self.dim = 0
        self._stack = [-1]
        self._patches: list = []

    def install(self, package: str = "statgeom") -> None:
        import numpy.linalg

        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        wrappers = {}
        for module in modules:
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__name__ not in UNWRAPPED:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[fn] = self._span(fn, fn.__name__, layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for attr in LAPACK:
            fn = getattr(numpy.linalg, attr, None)
            if fn is not None:
                self._patch(numpy.linalg, attr, self._span(fn, attr, "lapack"))
        billiard = sys.modules.get(package + ".billiard")
        fn = getattr(billiard, "minimize_scalar", None)
        if fn is not None:
            self._patch(billiard, "minimize_scalar", self._count(fn, "billiard.refinements"))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, name: str, layer: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        measure = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (
                    name, layer, start, end, parent, self.request, self.dim, error,
                )
            if measure is not None:
                counter, amount = measure(result, end - start)
                counters[counter] += amount
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """``L.calls``, ``L.self_ms`` and ``L.errors`` for every layer.

        An error counts once, where the exception leaves its layer: at a
        span whose parent belongs to another layer, or to no span.
        """
        spans = self.spans
        own = self_times([(s[2], s[3], s[4]) for s in spans])
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_ms"] = 0.0
            out[f"{layer}.errors"] = 0
        for span, self_s in zip(spans, own):
            layer = span[1]
            if layer not in LAYERS:
                continue
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_ms"] += self_s * 1e3
            parent = span[4]
            if span[7] and (parent < 0 or spans[parent][1] != layer):
                out[f"{layer}.errors"] += 1
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, start times from zero."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tlayer\tstart_us\tend_us\tparent\trequest\tdim\terror\n")
            for name, layer, start, end, parent, request, dim, error in self.spans:
                out.write(
                    f"{name}\t{layer}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}"
                    f"\t{parent}\t{request}\t{dim}\t{int(error)}\n"
                )


def span_cost(batches: int = 9, calls: int = 2000) -> float:
    """Seconds one span adds to a call: the median over ``batches`` of
    the extra time of ``calls`` wrapped calls of a function that does
    nothing, against as many bare calls, on a throwaway tracer."""

    def noop():
        return None

    spare = Tracer()
    wrapped = spare._span(noop, "noop", "noop")
    costs = []
    for _ in range(batches):
        spare.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)
