"""Boundary spans for the traced run, recorded from outside the program.

Only names that cross a module boundary are wrapped: the functions
``catgeo.cli`` imports from other modules, the functions
``catgeo.documents`` imports from ``catgeo.category``, and the harness's
own direct calls.  A module's calls into its own functions go through its
module globals, which stay untouched, so for example the products inside
``clifford_report`` count towards its self time.

Spans live in memory as (name, start, end, parent, op) tuples and are
written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import types
from contextlib import contextmanager
from time import perf_counter


def span_name(fn) -> str:
    return "%s.%s" % (fn.__module__.removeprefix("catgeo."), fn.__name__)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1  # the runner counts ops up from here
        self._stack = []

    def wrap(self, fn, name=None):
        name = name or span_name(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def self_times(self) -> dict:
        """name -> [calls, self seconds]; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[i]
        return totals

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, handle)


def _foreign_functions(namespace, home, source=None):
    """Names in a module namespace bound to catgeo functions defined elsewhere."""
    for name, value in vars(namespace).items():
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("catgeo.") and module != home:
            if source is None or module == source:
                yield name, value


@contextmanager
def boundaries(tracer, cli, documents, realline):
    """Wrap the cross-module names of cli and documents for the duration."""
    patches = [(cli, name, tracer.wrap(fn)) for name, fn in _foreign_functions(cli, "catgeo.cli")]
    patches += [(documents, name, tracer.wrap(fn))
                for name, fn in _foreign_functions(documents, "catgeo.documents", "catgeo.category")]
    # cli reaches realline through the module object; give it a wrapped view
    # so realline's calls into its own functions stay unwrapped
    view = types.SimpleNamespace(**{
        name: tracer.wrap(value) if inspect.isfunction(value) and value.__module__ == realline.__name__ else value
        for name, value in vars(realline).items() if not name.startswith("__")
    })
    patches.append((cli, "realline", view))
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, value in patches:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
