"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` keeps every span in a list until the run ends.  The
current span stack lives in a :mod:`contextvars` variable, so a span
opened inside ``asyncio.to_thread`` (the fleet service's worker threads)
still finds its parent.  Times come from :func:`time.perf_counter`, which
on Linux reads ``CLOCK_MONOTONIC``: spans written by the service process
and by the benchmark process share one time base and can be merged.

Self time is a span's duration minus the part of it that its child spans
cover, every span first cut to its parent's interval.  Summed over all
spans of one request it gives back the request's root duration exactly,
unless siblings overlap; :func:`request_breakdown` exposes any difference.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional

#: Name of the root span the benchmark opens around one request.
REQUEST = "request"

#: Largest difference, in seconds, allowed between a request's root
#: duration and the sum of its spans' self times.
ADDITIVITY_TOLERANCE_S = 1e-6

clock = time.perf_counter


@dataclass
class Span:
    """One timed call: name, interval, parent and the request it serves."""

    span_id: str
    name: str
    start: float
    end: float
    parent: Optional[str] = None
    request: str = ""
    #: Work counted at this boundary, such as badge-days or cache hits.
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; one instance per process and run."""

    def __init__(self, tag: str = "b"):
        self.tag = tag
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stack: contextvars.ContextVar[tuple] = contextvars.ContextVar(
            f"perfbench-stack-{id(self)}", default=())

    def begin(self, name: str, request: Optional[str] = None) -> Span:
        """Start a span under the current one without entering it."""
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = f"{self.tag}{next(self._ids)}"
        return Span(span_id=span_id, name=name, start=clock(), end=0.0,
                    parent=parent.span_id if parent is not None else None,
                    request=request if request is not None else (
                        parent.request if parent is not None else ""))

    @contextmanager
    def within(self, sp: Span) -> Iterator[Span]:
        """Make ``sp`` the parent of spans opened in the body."""
        token = self._stack.set(self._stack.get() + (sp,))
        try:
            yield sp
        finally:
            self._stack.reset(token)

    def finish(self, sp: Span) -> None:
        sp.end = clock()
        with self._lock:
            self.spans.append(sp)

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        """Time the body as one span nested under the current one."""
        sp = self.begin(name, request)
        try:
            with self.within(sp):
                yield sp
        finally:
            self.finish(sp)

    def dump(self, path: str | Path) -> None:
        """Write every recorded span as JSON (done once, when the run ends)."""
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]))


def load_spans(path: str | Path) -> list[Span]:
    return [Span(**data) for data in json.loads(Path(path).read_text())]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Each span's interval cut to its ancestors' intervals.

    A span recorded in another process can end after the request it
    served has already ended (the service acknowledges a job, the client
    reads the result, and only then does the service thread get the
    interpreter lock back to close its span); the part outside its parent
    is not on the request's path.
    """
    by_id = {sp.span_id: sp for sp in spans}
    out: dict[str, tuple[float, float]] = {}

    def interval(sp: Span) -> tuple[float, float]:
        if sp.span_id not in out:
            start, end = sp.start, sp.end
            parent = by_id.get(sp.parent) if sp.parent is not None else None
            if parent is not None:
                p_start, p_end = interval(parent)
                start, end = max(start, p_start), min(end, p_end)
            out[sp.span_id] = (start, max(start, end))
        return out[sp.span_id]

    for sp in spans:
        interval(sp)
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the union of its children's intervals,
    all intervals cut to their ancestors' (see :func:`_clipped`)."""
    bounds = _clipped(spans)
    children: dict[str, list[str]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp.span_id)
    out = {}
    for sp in spans:
        start, end = bounds[sp.span_id]
        covered = [bounds[c] for c in children.get(sp.span_id, ())]
        out[sp.span_id] = (end - start) - _covered([(a, b) for a, b in covered if b > a])
    return out


def roots(spans: list[Span]) -> dict[str, Span]:
    """Each span's root ancestor (a span whose parent is not in ``spans``
    is its own root)."""
    by_id = {sp.span_id: sp for sp in spans}
    out: dict[str, Span] = {}

    def root(sp: Span) -> Span:
        if sp.span_id not in out:
            parent = by_id.get(sp.parent) if sp.parent is not None else None
            out[sp.span_id] = sp if parent is None else root(parent)
        return out[sp.span_id]

    for sp in spans:
        root(sp)
    return out


def propagate_requests(spans: list[Span]) -> None:
    """Give every span its root ancestor's request identifier."""
    top = roots(spans)
    for sp in spans:
        sp.request = top[sp.span_id].request


def in_requests(spans: list[Span]) -> list[Span]:
    """Spans that descend from a :data:`REQUEST` root, the roots excluded."""
    top = roots(spans)
    return [sp for sp in spans
            if top[sp.span_id] is not sp and top[sp.span_id].name == REQUEST]


@dataclass
class RequestBreakdown:
    """Self time by span name within one request, plus its remainder."""

    request: str
    wall_s: float
    #: Root self time: request time no layer span covers.
    remainder_s: float
    self_s: dict[str, float]

    @property
    def additivity_error_s(self) -> float:
        return abs(self.remainder_s + sum(self.self_s.values()) - self.wall_s)


def request_breakdown(spans: list[Span]) -> list[RequestBreakdown]:
    """One :class:`RequestBreakdown` per root :data:`REQUEST` span.

    Spans that do not descend from a request root are ignored; siblings
    that overlap each other show up as an additivity error.
    """
    selfs = self_times(spans)
    top = roots(spans)
    per_root: dict[str, dict[str, float]] = {}
    for sp in in_requests(spans):
        per_name = per_root.setdefault(top[sp.span_id].span_id, {})
        per_name[sp.name] = per_name.get(sp.name, 0.0) + selfs[sp.span_id]
    return [
        RequestBreakdown(request=sp.request, wall_s=sp.duration,
                         remainder_s=selfs[sp.span_id],
                         self_s=per_root.get(sp.span_id, {}))
        for sp in spans if sp.name == REQUEST and top[sp.span_id] is sp
    ]
