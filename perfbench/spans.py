"""In-memory span recording around the public functions of kmsa's modules.

A function is wrapped at every name a caller looks it up by: the attribute of
the module that defines it (used by calls inside that module and by
``module.name`` lookups such as ``data_io.save_model`` in the CLI) and every
``from module import name`` binding in another kmsa module or the package
itself (such as ``kmsa.optimizer.generalized_eigh``). Nothing under ``src/``
changes; the original functions are put back when the recording ends.

A span is ``(name, start, end, parent)``: ``name`` is ``layer.function``,
``start``/``end`` come from ``time.perf_counter`` and ``parent`` is the index
of the enclosing span, or -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("kernels", "graphs", "eigsolver", "optimizer", "data_io", "evaluation", "cli")

# Called once per matrix entry (format_float) or per lasso coordinate
# (soft_threshold): a span around each would cost more than the work. Their
# time counts toward the caller's span.
PER_ELEMENT = {"data_io.format_float", "graphs.soft_threshold"}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def public_functions(layers=LAYERS) -> dict:
    """``layer.function`` -> function, for every public function that a kmsa
    layer module defines itself (re-exported imports excluded)."""
    found = {}
    for layer in layers:
        module = importlib.import_module(f"kmsa.{layer}")
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in PER_ELEMENT:
                found[name] = fn
    return found


class Recorder:
    """Records spans for the given functions while used as a context manager.

    ``capture`` names functions whose return values are also kept, so the
    benchmark can check outputs that a CLI command builds internally.
    """

    def __init__(self, functions: dict, capture=()):
        self.functions = functions
        self.spans = []
        self.stack = []
        self.captured = {name: [] for name in capture}
        self._patches = []

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        kept = self.captured.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "kmsa" or mod_name.startswith("kmsa.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False


class _Span:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        rec = self.recorder
        self.idx = len(rec.spans)
        rec.spans.append(None)
        self.parent = rec.stack[-1] if rec.stack else -1
        rec.stack.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.recorder
        rec.stack.pop()
        rec.spans[self.idx] = (self.name, self.start, end, self.parent)
        self.seconds = end - self.start
        return False


def self_times(spans) -> dict:
    """Per-span-name totals over ``spans``.

    For each name: ``calls``; ``self`` -- duration minus the time of every
    child span; ``layer_self`` -- duration minus the time spent in spans of
    other layers below it, so same-layer helpers count toward their caller
    (``optimizer.objective`` includes ``optimizer.objective_terms``).
    """
    n = len(spans)
    child_time = [0.0] * n
    foreign = [0.0] * n
    # children are appended after their parent, so one reverse pass suffices
    for i in range(n - 1, -1, -1):
        name, start, end, parent = spans[i]
        if parent < 0:
            continue
        dur = end - start
        child_time[parent] += dur
        if layer_of(name) == layer_of(spans[parent][0]):
            foreign[parent] += foreign[i]
        else:
            foreign[parent] += dur
    totals = defaultdict(lambda: {"calls": 0, "self": 0.0, "layer_self": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        entry = totals[name]
        entry["calls"] += 1
        entry["self"] += dur - child_time[i]
        entry["layer_self"] += dur - foreign[i]
    return dict(totals)
