"""Span tracing around the public API of the traceform layers.

A layer is one module of the package. `tracing` wraps every public function
of each layer module, and every public method and arithmetic or comparison
operator of the layer's public classes, so that each call opens a span
(name, start, end, parent) on a `Tracer`. Calls to private helpers are not
wrapped: their time counts toward the nearest wrapped caller.

A traced run of one workload opens hundreds of thousands of spans, so the
tracer does not keep them: when a span closes, its self time (its duration
minus the time its child spans cover) is added to its name's totals, and its
duration is added to the covered time of its parent.

Hooks attached to span names turn arguments and return values into work
counters (rank, columns, bytes), measured at the layer boundary where the
work happens.
"""

from __future__ import annotations

import inspect
import os
import time
from contextlib import contextmanager
from types import ModuleType
from typing import Callable

LAYERS = ("cli", "mde", "zhu", "virasoro", "bracket", "elliptic", "qseries", "linalg")

OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__pow__",
    "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
})


class Tracer:
    """Stack of open spans; per-name call counts and self time of closed ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.totals: dict[str, list] = {}        # name -> [calls, self seconds]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []             # [name, start, covered]

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        cell = self.totals.setdefault(name, [0, 0.0])
        cell[0] += 1
        cell[1] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer; a span name starts with its layer."""
        out = {layer: (0, 0.0) for layer in LAYERS}
        for name, (calls, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            c, s = out[layer]
            out[layer] = (c + calls, s + self_s)
        return out


Hook = Callable[[Tracer, tuple, dict, object], None]

# Counters reported as metrics; counter_hooks also keeps linalg.rowspan_useful,
# the numerator of linalg.rowspan_useful_ratio.
COUNTERS = ("mde.derivations", "mde.relation_rank", "mde.frobenius_terms",
            "linalg.rowspan_adds", "linalg.nullspace_cols", "qseries.series_mults",
            "qseries.io_bytes", "zhu.class_polys", "virasoro.singular_solves")


def _wrap(tracer: Tracer, fn: Callable, name: str, hook: Hook | None) -> Callable:
    open_span, close_span = tracer.open, tracer.close

    def traced(*args, **kwargs):
        open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    traced.__wrapped__ = fn
    return traced


def _targets(layer: str, module: ModuleType):
    """(span name, owner, attribute, callable, kind) for each traced entry point."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for mattr, member in list(vars(obj).items()):
                if mattr.startswith("_") and mattr not in OPERATORS:
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield f"{layer}.{attr}.{mattr}", obj, mattr, member.__func__, type(member)
                elif inspect.isfunction(member):
                    yield f"{layer}.{attr}.{mattr}", obj, mattr, member, None
        elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield f"{layer}.{attr}", module, attr, obj, None


@contextmanager
def tracing(tracer: Tracer, modules: dict[str, ModuleType], hooks: dict[str, Hook]):
    """Wrap the layers' entry points for the duration of the block.

    Names bound by `from module import name` in another layer are rebound to
    the same wrapper, so a call is traced whichever module it goes through.
    """
    restore: list[tuple[object, str, object]] = []
    wrapped: dict[int, Callable] = {}
    try:
        for layer, module in modules.items():
            for name, owner, attr, fn, kind in _targets(layer, module):
                wrapper = wrapped.get(id(fn))
                if wrapper is None:
                    wrapper = wrapped[id(fn)] = _wrap(tracer, fn, name, hooks.get(name))
                restore.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper if kind is None else kind(wrapper))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)].__wrapped__ is obj:
                    restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def counter_hooks(series_type: type) -> dict[str, Hook]:
    """Work counters keyed by the span name whose calls they count.

    series_type is qseries.PuiseuxSeries: only series-by-series products
    count as series multiplications, not scaling by a rational.
    """
    def derivation(t, args, kwargs, result):
        t.count("mde.derivations")

    def relation_rank(t, args, kwargs, result):
        t.count("mde.relation_rank", result.rank)

    def frobenius_terms(t, args, kwargs, result):
        t.count("mde.frobenius_terms", len(result.coeffs))

    def rowspan_add(t, args, kwargs, result):
        t.count("linalg.rowspan_adds")
        t.count("linalg.rowspan_useful", bool(result))

    def nullspace_cols(t, args, kwargs, result):
        t.count("linalg.nullspace_cols", _arg(args, kwargs, 1, "ncols"))

    def series_mult(t, args, kwargs, result):
        if isinstance(args[1], series_type):
            t.count("qseries.series_mults")

    def io_bytes(t, args, kwargs, result):
        t.count("qseries.io_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

    def class_poly(t, args, kwargs, result):
        t.count("zhu.class_polys")

    def singular_solve(t, args, kwargs, result):
        t.count("virasoro.singular_solves")

    return {
        "mde.derive_recursion": derivation,
        "mde.build_relation_space": relation_rank,
        "mde.frobenius_solve": frobenius_terms,
        "linalg.RowSpan.add": rowspan_add,
        "linalg.sparse_nullspace": nullspace_cols,
        "qseries.PuiseuxSeries.__mul__": series_mult,
        "qseries.write_series": io_bytes,
        "qseries.read_series": io_bytes,
        "zhu.class_polynomial": class_poly,
        "virasoro.singular_vectors": singular_solve,
    }
