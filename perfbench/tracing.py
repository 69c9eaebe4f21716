"""Spans around the public functions of a package, installed from outside it.

Every public callable a package module defines is wrapped once, and every
binding of that callable in every module of the package is replaced by the
wrapper.  That catches ``from .x import y`` copies and imports made lazily
inside a function body, because both look the name up in a module namespace
that now holds the wrapper.

Spans are kept in memory as ``(name, start, end, parent)`` and aggregated by
:meth:`Tracer.summary` when the traced command has returned.  A span's self
time is its duration minus the durations of its direct children.  Calls are
sequential in one thread, so children neither overlap nor outlast their
parent, and no self time is negative; ``summary`` reports the root spans and
the smallest self time so the caller can check that.  Then the self times of
all spans under a root span add up to the root span.
"""

from __future__ import annotations

import sys
import time


def _rk4_steps(args, result):
    # rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half): one step per midpoint
    return {"kernels.rk4_sweep.steps": len(args[7])}


def _pow_ops(args, result):
    # eval_powsum_batch(coeffs, exps, ts): one pow per term and point
    return {"kernels.eval_powsum_batch.pow_ops": len(args[0]) * len(args[2])}


def _newton(args, result):
    return {
        "solver.newton_iterations": result.iterations,
        "solver.newton_converged": int(result.converged),
    }


#: counters read from a traced call's arguments or result, keyed by span name
COUNTER_HOOKS = {
    "kernels.rk4_sweep": _rk4_steps,
    "kernels.eval_powsum_batch": _pow_ops,
    "solver.newton_solve": _newton,
}


#: scalar functions called ~1e5 times per command; a span around each call
#: costs about as much as the call, so they are counted, not timed
COUNT_ONLY = frozenset({"kernels.eval_powsum", "special.gamma"})


class Tracer:
    """In-memory span recorder for one package in this process."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._cache_start = None

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        """Replace every binding of each traced callable in every package module."""
        modules = self._modules()
        targets: dict[int, tuple[object, str]] = {}
        for module in modules:
            short = module.__name__[len(self.package) + 1 :] or self.package
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                # an object bound under several names (kernels.eval_powsum and
                # kernels.eval_powsum_numpy) is named by its shortest binding
                name = f"{short}.{attr}"
                known = targets.get(id(obj))
                if known is None or (len(name), name) < (len(known[1]), known[1]):
                    targets[id(obj)] = (obj, name)
        wrappers = {key: (obj, self._wrap(name, obj)) for key, (obj, name) in targets.items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        fracops = sys.modules.get(self.package + ".fracops")
        cache = getattr(fracops, "_image_series", None)
        if hasattr(cache, "cache_info"):
            self._cache_start = cache.cache_info()

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            box = self._counts.setdefault(name, [0])

            def counted(*args, **kwargs):
                box[0] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted
        spans = self.spans
        stack = self._stack
        counters = self.counters
        hook = COUNTER_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                for key, value in hook(args, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, counters, cache lookups,
        the root spans and the smallest self time of any span."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        functions: dict[str, dict] = {}
        roots = []
        min_self_s = None
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            own = duration - child_s[index]
            entry = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own
            min_self_s = own if min_self_s is None else min(min_self_s, own)
            if parent < 0:
                roots.append([name, duration])
        for name, (calls,) in self._counts.items():
            functions[name] = {"calls": calls, "total_s": None, "self_s": None}
        image_cache = None
        if self._cache_start is not None:
            end_info = sys.modules[self.package + ".fracops"]._image_series.cache_info()
            image_cache = {
                "hits": end_info.hits - self._cache_start.hits,
                "misses": end_info.misses - self._cache_start.misses,
            }
        return {
            "functions": functions,
            "counters": self.counters,
            "image_cache": image_cache,
            "roots": roots,
            "min_self_s": min_self_s,
        }
