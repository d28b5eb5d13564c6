"""Outside-in tracing: wrap functions where one module calls into another.

A wrapper is installed by rebinding a name in the module that looks it up at
call time, so the traced program itself is unchanged. Spans (name, start, end,
parent, instance id, info) and counters stay in memory until the run ends;
``Tracer.restore`` puts every original function back.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "info")

    def __init__(self, name: str, start: float, parent: int, instance: str | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.instance = instance
        self.info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first, so stacked patches unwind cleanly."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span(self, module, attr: str, name: str, **kwargs) -> None:
        """Record a span named ``name`` around every call of ``module.attr``."""
        self.patch(module, attr, self.wrap(getattr(module, attr), name, **kwargs))

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        instance: Callable[..., str | None] | None = None,
        done: Callable[[Span, tuple, dict, object], None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that every call records a span.

        ``instance(*args, **kwargs)`` names the instance the call works on; a
        span without one inherits its parent's. ``done(span, args, kwargs,
        result)`` may fill ``span.info`` or counters after a normal return. A
        raised exception is noted as ``span.info["raised"]`` and re-raised.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            inst = instance(*args, **kwargs) if instance else None
            if inst is None and parent >= 0:
                inst = spans[parent].instance
            span = Span(name, clock(), parent, inst)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"raised": type(exc).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if done is not None:
                done(span, args, kwargs, result)
            return result

        return wrapper

    def count(self, module, attr: str, on_call: Callable[[Counter, tuple], None]) -> None:
        """Call ``on_call(counts, args)`` before every call of ``module.attr``; no span."""
        fn = getattr(module, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(counts, args)
            return fn(*args, **kwargs)

        self.patch(module, attr, wrapper)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent,
                                     span.instance, span.info]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            kids[span.parent].append((span.start, span.end))
    out = []
    for span, intervals in zip(spans, kids):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(intervals):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]
