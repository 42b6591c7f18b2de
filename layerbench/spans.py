"""In-memory spans around public framedrag functions (benchmark-owned wrappers).

A wrapper records one span per call: name, start, end and the index of the
enclosing span.  ``install`` replaces the function everywhere a caller can
reach it: the defining module's attribute, every by-name alias in the
framedrag modules (``from x import f``), and function default arguments
that captured it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, label=None):
        """Wrap ``fn``; ``label(result)`` may rename the span after the call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            span_name = name
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if label is not None:
                    span_name = label(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent)

        return traced

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds over spans[first:]."""
        window = self.spans[first:]
        child_time = [0.0] * len(window)
        for name, start, end, parent in window:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(window, child_time):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - children
        return out


def _framedrag_modules() -> list[types.ModuleType]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "framedrag" or name.startswith("framedrag."))]


def install(recorder: Recorder, targets: list[tuple[str, str, str]], labels=None) -> None:
    """Wrap each (span name, module, attribute) wherever framedrag can reach it."""
    labels = labels or {}
    for span_name, module_name, attr in targets:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = recorder.wrap(span_name, original, labels.get(span_name))
        for mod in [module, *_framedrag_modules()]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                elif isinstance(value, types.FunctionType):
                    _replace_defaults(value, original, wrapper)


def _replace_defaults(fn, original, wrapper) -> None:
    if fn.__defaults__ and any(d is original for d in fn.__defaults__):
        fn.__defaults__ = tuple(wrapper if d is original else d for d in fn.__defaults__)
    if fn.__kwdefaults__ and any(d is original for d in fn.__kwdefaults__.values()):
        fn.__kwdefaults__ = {k: wrapper if d is original else d
                             for k, d in fn.__kwdefaults__.items()}
