"""In-memory spans, the wrappers that record them, and span arithmetic.

A span is a list ``[name, start, end, parent]``; ``parent`` is the index of
the enclosing span in the same list, or -1. The benchmark runs one client on
one thread, so an explicit stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "inclusive_time", "self_times"]


class Tracer:
    """Records spans and counters; installs and removes function wrappers.

    Counters are plain numbers keyed by metric name. ``held`` keeps objects
    a counter needs after the call returns (random streams, whose draw
    counts are read at the end of a pass). ``missing`` maps a wrapper target
    that could not be found to the reason, and ``broken`` maps a span name
    whose counter raised to the error; metrics that need either are
    reported as unmeasured.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.held: dict[str, list] = defaultdict(list)
        self.missing: dict[str, str] = {}
        self.broken: dict[str, str] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def take_pass(self) -> tuple[list[list], dict[str, float], dict[str, list]]:
        """Hand over what one pass recorded and start empty."""
        taken = (self.spans, dict(self.counts), dict(self.held))
        self.spans, self.counts, self.held = [], defaultdict(float), defaultdict(list)
        return taken

    # -- wrappers ------------------------------------------------------------

    def wrap_target(self, module_name: str, path: str, span_name: str, count=None) -> bool:
        """Wrap ``module.path`` (``func`` or ``Class.method``) where it is looked up.

        A module-level function is replaced in every ``anchorft`` module
        namespace that holds the same object, so calls through ``from .x
        import f`` are seen. A method is replaced on its class. Returns False
        and records the target as missing when it does not exist.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            self.missing[span_name] = f"cannot import {module_name}: {exc}"
            return False
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing[span_name] = f"{module_name}.{path} not found"
                return False
        original = getattr(owner, parts[-1], None)
        if not callable(original):
            self.missing[span_name] = f"{module_name}.{path} not found"
            return False
        wrapper = self._wrapper(original, span_name, count)
        if owner is not module:
            self._patch(owner, parts[-1], wrapper)
            return True
        package = module_name.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
        return True

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(self, original, span_name: str, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None and span_name not in tracer.broken:
                try:
                    count(tracer, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    tracer.broken[span_name] = f"counter failed: {type(exc).__name__}: {exc}"
            return result

        return traced


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [
        (end - start) - _union_length(children.get(i, []))
        for i, (_, start, end, _) in enumerate(spans)
    ]


def inclusive_time(spans: list[list], names) -> float:
    """Total duration of spans named in ``names`` that have no ancestor in ``names``."""
    names = set(names)
    total = 0.0
    for _, start, end, parent in (s for s in spans if s[0] in names):
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total
