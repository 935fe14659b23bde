"""In-memory span tracing for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into each
layer of the program (nothing inside ``src/`` is instrumented).  Each
span has a name, start, end, parent and request id; spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Tracer:
    """Collects spans; nesting follows the calling thread's open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        stack: list[int] = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, request))

    def current(self) -> int | None:
        """The calling thread's innermost open span, if any."""
        stack = self._local.__dict__.get("stack") or []
        return stack[-1] if stack else None

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request: str | None = None,
        parent: int | None = None,
    ) -> None:
        """Add a span measured elsewhere (e.g. a request timed from its
        due time) under ``parent``, by default the calling thread's
        innermost open span."""
        parent = parent if parent is not None else self.current()
        with self._lock:
            span_id = next(self._ids)
            self.spans.append(Span(span_id, name, start, end, parent, request))

    def _children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_time(self, span: Span, children: dict[int, list[Span]] | None = None) -> float:
        """The span's duration minus the part its children cover."""
        kids = (children if children is not None else self._children()).get(span.id, [])
        return span.duration - covered(((c.start, c.end) for c in kids), span.start, span.end)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def unattributed(self, start: float, end: float) -> float:
        """Wall time in ``[start, end]`` that no root span covers."""
        return (end - start) - covered(((s.start, s.end) for s in self.roots()), start, end)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children = self._children()
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + self.self_time(span, children)
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def maybe_span(
    tracer: Tracer | None, name: str, request: str | None = None
) -> AbstractContextManager[None]:
    """``tracer.span(name)``, or nothing at all in an untraced run."""
    return tracer.span(name, request) if tracer is not None else nullcontext()


def wait_until(due: float, tracer: Tracer | None = None) -> None:
    """Sleep until ``due`` (``perf_counter`` time); no-op when late.  A
    traced wait is a ``bench.pace`` span, so pacing is never counted as
    unattributed time."""
    pause = due - time.perf_counter()
    if pause > 0:
        with maybe_span(tracer, "bench.pace"):
            time.sleep(pause)
