"""Timing spans around the public functions of the asymflux modules.

The tracer lives in the benchmark, not in the package: ``install`` replaces
every public function (and every public method of a public class) of each
layer module with a wrapper that records a span, and rebinds the wrapper
wherever a module imported the original with ``from ... import``.

A span's self time is its duration minus the durations of the spans it
called.  Self times of all spans add up to the root span (``cli.main``), so
their sum checks that no time escaped the trace.  The integrand closure
handed to ``integrate_sphere``/``integrate_annulus`` gets an ``integrand``
span in the layer that called the integrator, so work done inside the
closure (normals, area elements, contractions) is charged to ``charges`` or
``verify``, not to ``quadrature``.  ``hyperdual`` is not wrapped: its
arithmetic is counted in the self time of the layer that called it
(``catalog``, ``expr`` or ``fields``).
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("catalog", "expr", "fields", "geometry", "charges", "quadrature",
          "limits", "verify", "cli")


def _points(p) -> int:
    """Number of chart points in an ``(..., n)`` array or a ChartPoint."""
    coords = getattr(p, "coords", p)
    return math.prod(getattr(coords, "shape", (1,))[:-1])


def _matrices(g) -> int:
    """Number of ``n x n`` matrices in an ``(..., n, n)`` array."""
    return math.prod(getattr(g, "shape", (1, 1))[:-2])


# span name -> function of (args, result) giving the nodes that call handled
_NODE_COUNTERS = {
    "catalog.metric_jet": lambda a, out: _points(a[1]),
    "catalog.deviation_jet": lambda a, out: _points(a[1]),
    "geometry.curvature": lambda a, out: _matrices(a[0].g),
    "geometry.inverse_metric": lambda a, out: _matrices(a[0]),
    "quadrature.integrate_sphere": lambda a, out: out.nodes_used,
    "quadrature.integrate_annulus": lambda a, out: out.nodes_used,
}
_INTEGRATORS = ("quadrature.integrate_sphere", "quadrature.integrate_annulus")


class Tracer:
    """Per-span self time, call, node and error counts for one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.nodes = Counter()
        self.errors = Counter()
        self._stack = []     # open spans: [layer, time spent in children]

    def wrap(self, layer: str, name: str, fn):
        span = f"{layer}.{name}"
        count_nodes = _NODE_COUNTERS.get(span)
        integrator = span in _INTEGRATORS
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if integrator and stack:
                # the integrand closure belongs to the layer that built it
                args = (self.wrap(stack[-1][0], "integrand", args[0]),
                        *args[1:])
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[span] += duration - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += duration
            if count_nodes is not None:
                self.nodes[span] += count_nodes(args, out)
            return out

        return traced

    def install(self):
        """Wrap the layer modules of the imported ``asymflux`` package."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"asymflux.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(layer, name, obj)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(layer, meth, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "asymflux" and not modname.startswith("asymflux."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        return self

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for span, seconds in self.self_s.items():
            out[span.split(".", 1)[0]] += seconds
        return out

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "nodes": dict(self.nodes), "errors": dict(self.errors),
                "layer_self_s": self.layer_self_s()}
