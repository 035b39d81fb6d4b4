"""The benchmark's own tracer: spans recorded from outside the program.

One :class:`Span` per timed call into a layer's public function — name,
start, end, the span that caused it, and a request id shared by every
span of one op.  Spans stay in memory and are written out
(:meth:`Tracer.write_jsonl`) when the run ends.  A layer's *self time* is
its span's duration minus the part of that interval its children cover
(:func:`self_times`), so nested layers never double-count.

Nothing in ``src/`` knows this tracer exists: the spans sit around calls
made by the benchmark's files (spans inside the program are a later
change, ROADMAP item 1(b)).
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed call: ``[start, end)`` on the ``perf_counter`` clock."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "request")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], request: Optional[int]) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start

    def describe(self) -> Dict[str, object]:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


class Tracer:
    """An in-memory span recorder for one (single-threaded) traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._request: Optional[int] = None

    @contextlib.contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Every span opened inside shares *request_id*."""
        previous = self._request
        self._request = request_id
        try:
            yield
        finally:
            self._request = previous

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self._request)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            request: Optional[int] = None) -> Span:
        """Record a span whose bounds were measured elsewhere."""
        span = Span(len(self.spans), name, start, parent, request)
        span.end = end
        self.spans.append(span)
        return span

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.describe(), sort_keys=True))
                handle.write("\n")
        return len(self.spans)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``span id -> self time``: duration minus what its children cover.

    Children may overlap each other (parallel parts) and may stick out
    of the parent (clock skew between recorders); the covered part is
    the *union* of the child intervals clipped to the parent's.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda s: s.start):
            lo = max(child.start, cursor, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, List[float]]:
    """Self times grouped by span name (the per-layer sample lists)."""
    own = self_times(spans)
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(own[span.span_id])
    return grouped
