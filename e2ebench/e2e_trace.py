"""Span recording from outside the program, and self-time arithmetic.

A :class:`SpanRecorder` replaces attributes of the program (a method on a
class, a function in a module) with wrappers that record one span per call:
``(layer, span id, parent span id, start, end)``.  Parents are tracked per
thread, so spans recorded by a server's handler threads nest correctly.
Spans stay in memory until the run ends; :meth:`SpanRecorder.restore` puts
every original attribute back.

:func:`self_times` turns spans into per-layer ``(calls, self seconds)``.  A
span's self time is its duration minus the part of it that its child spans
cover, so a layer that calls itself (recursion) or calls a layer that calls
back into it is never counted twice: the self times of all spans of one
thread add up to the time covered by that thread's root spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

#: One recorded call: (layer, span id, parent span id or 0, start, end).
Span = tuple[str, int, int, float, float]


class SpanRecorder:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        #: Plain counters (work done, cache events) keyed by metric name.
        self.counters: defaultdict[str, float] = defaultdict(float)
        #: Raw samples (latencies) keyed by metric name.
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``before(args)`` and ``after(result, args)`` run outside the span, so
        the bookkeeping they do is not charged to ``layer``.
        """
        spans = self.spans
        clock = self._clock
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((layer, span_id, parent, start, end))
            if after is not None:
                after(result, args)
            return result

        return traced

    def counting(self, counter: str, fn: Callable) -> Callable:
        """``fn`` bumping ``counter`` per call, without a span."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------ patching
    @property
    def patches(self) -> tuple[tuple[object, str, bool, object], ...]:
        """Live patches as ``(owner, attr, owned before, original)``."""
        return tuple(self._patches)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement``; :meth:`restore` undoes it."""
        own = vars(owner)
        had = attr in own
        original = own[attr] if had else getattr(owner, attr)
        self._patches.append((owner, attr, had, original))
        setattr(owner, attr, replacement)

    def trace_attr(
        self,
        owner: object,
        attr: str,
        layer: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``."""
        self.patch(owner, attr, self.wrap(layer, getattr(owner, attr), before, after))

    def trace_function(
        self, module: object, name: str, layer: str, after: Callable | None = None
    ) -> None:
        """Trace a module function, also where another module imported it by name."""
        original = getattr(module, name)
        traced = self.wrap(layer, original, after=after)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            if vars(other).get(name) is original:
                self.patch(other, name, traced)

    def restore(self) -> None:
        """Put back every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ output
    def payload(self) -> dict:
        """Spans, counters and samples as one JSON-ready document."""
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for child_start, child_end in sorted(intervals):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            total += child_end - child_start
            cursor = child_end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds), where self = duration − covered child time."""
    spans = list(spans)
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _layer, _span_id, parent, start, end in spans:
        if parent:
            children[parent].append((start, end))
    totals: dict[str, list] = {}
    for layer, span_id, _parent, start, end in spans:
        covered = _covered(children.get(span_id, []), start, end)
        entry = totals.setdefault(layer, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {layer: (calls, seconds) for layer, (calls, seconds) in totals.items()}
