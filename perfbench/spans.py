"""Spans around the benchmark's calls into efgames, kept in memory.

A span records its name, start, end, the span open when it began and the
query it belongs to.  With tracing off, ``span`` hands back one shared empty
context, so untraced runs time the same code path minus the recording.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

_OFF = contextlib.nullcontext()


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append(
            Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer.query)
        )
        stack.append(self.index)

    def __enter__(self) -> None:
        self.tracer.spans[self.index].start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index].end = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.query: Optional[int] = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Open(self, name) if self.enabled else _OFF

    def self_ms(self, seconds: Callable[[float, float], float]) -> dict[str, float]:
        """Per span name, the summed duration minus the time covered by
        direct children, in milliseconds; ``seconds(start, end)`` measures
        an interval."""
        took = [seconds(s.start, s.end) for s in self.spans]
        covered = [0.0] * len(self.spans)
        for s, t in zip(self.spans, took):
            if s.parent is not None:
                covered[s.parent] += t
        out: dict[str, float] = {}
        for s, t, c in zip(self.spans, took, covered):
            out[s.name] = out.get(s.name, 0.0) + (t - c) * 1000
        return out
