"""In-memory spans and the self-time arithmetic the per-layer metrics use.

A span is one call into a layer: its name (`<layer>.<operation>`), start and
end on `time.perf_counter`, the index of the span that caused it, the pid of
the process that recorded it and a few counts.  `perf_counter` reads
CLOCK_MONOTONIC on Linux, so spans that pool workers record line up with the
parent's.  Spans stay in memory until the run ends and are written out once.
"""
from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1        # index of the causing span in the same list; -1: root
    pid: int = 0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls; one per benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pid = os.getpid()

    def reset(self) -> None:
        """Forget everything recorded, e.g. in a freshly forked pool worker."""
        self.spans.clear()
        self._stack.clear()
        self.pid = os.getpid()

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def wrap(self, fn, name: str, record=None):
        """`fn` timed as span `name`; `record(span, args, kwargs, result)` adds counts.

        The recorder runs after the span has closed, so its own cost lands in
        the caller's self time, not in the layer's.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1, pid=self.pid)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if record is not None:
                record(span, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block, on the stack so calls inside become children."""
        span = Span(name, self.clock(), parent=self._parent(), pid=self.pid)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def detached(self, name: str, **attrs) -> Span:
        """An open span that never becomes a parent; the caller sets `end`."""
        span = Span(name, self.clock(), parent=self._parent(), pid=self.pid,
                    attrs=attrs or None)
        self.spans.append(span)
        return span

    def drain(self) -> list[Span]:
        """Hand over every span recorded so far; call only with no span open."""
        out = self.spans[:]
        self.spans.clear()
        return out

    def extend(self, spans: list[Span]) -> None:
        """Append spans drained from another tracer, keeping their tree."""
        base = len(self.spans)
        for s in spans:
            if s.parent >= 0:
                s.parent += base
            self.spans.append(s)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "pid": s.pid,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, "attrs": s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children are
    counted once, so the result is never negative.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
