"""Lightweight span tracing with wall-clock *and* simulation-time durations.

A span marks one stage of the pipeline (a badge-day of sensing, a day of
crew simulation, a whole mission).  Spans nest: entering a span makes it
the parent of any span opened inside it, so the collector ends up with a
forest that the report renders as a per-stage time breakdown.

Usage::

    from repro.obs import span

    with span("sensing.badge_day", badge=3, day=2):
        ...

When telemetry is disabled, :func:`span` returns a shared no-op context
manager — one attribute read and no allocation on the fast path.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Optional

from repro.obs import _state

_ids = itertools.count(1)


class Span:
    """One finished-or-active span."""

    __slots__ = (
        "span_id", "parent_id", "name", "attrs",
        "wall_start", "wall_end", "sim_start", "sim_end",
    )

    def __init__(self, name: str, parent_id: Optional[int], attrs: dict):
        self.span_id = next(_ids)
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.wall_start = time.perf_counter()
        self.wall_end: Optional[float] = None
        self.sim_start = _state.sim_now()
        self.sim_end: Optional[float] = None

    @property
    def wall_s(self) -> Optional[float]:
        """Wall-clock duration in seconds (None while still open)."""
        if self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    @property
    def sim_s(self) -> Optional[float]:
        """Simulation-time duration (None without a registered sim clock)."""
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def __enter__(self) -> "Span":
        _stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_end = time.perf_counter()
        self.sim_end = _state.sim_now()
        if exc_type is not None:
            self.attrs = dict(self.attrs, error=exc_type.__name__)
        if _stack and _stack[-1] is self:
            _stack.pop()
        collector.add(self)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
        }

    @classmethod
    def restore(cls, name: str, attrs: dict,
                wall_s: Optional[float], sim_s: Optional[float]) -> "Span":
        """Rebuild a *finished* span from exported durations.

        Used when merging another process's spans: absolute start times
        are meaningless across processes, so the restored span anchors
        at zero and only its durations survive.  Never touches the
        active-span stack.
        """
        span = cls.__new__(cls)
        span.span_id = next(_ids)
        span.parent_id = None
        span.name = name
        span.attrs = attrs
        span.wall_start = 0.0
        span.wall_end = wall_s
        span.sim_start = 0.0 if sim_s is not None else None
        span.sim_end = sim_s
        return span

    def __repr__(self) -> str:
        dur = f"{self.wall_s * 1e3:.2f}ms" if self.wall_end is not None else "open"
        return f"<Span {self.name} {dur}>"


class _NoopSpan:
    """Shared do-nothing context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()

#: The active-span stack (single-threaded pipeline; spans opened inside
#: an active span become its children).
_stack: list[Span] = []


class SpanCollector:
    """In-memory sink of finished spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, span: Span) -> None:
        self.spans.append(span)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def roots(self) -> list[Span]:
        ids = {s.span_id for s in self.spans}
        return [s for s in self.spans if s.parent_id not in ids]

    def breakdown(self) -> dict[str, dict]:
        """Aggregate spans by name: count + total wall/sim seconds."""
        agg: dict[str, dict] = {}
        for s in self.spans:
            entry = agg.setdefault(
                s.name, {"count": 0, "wall_s": 0.0, "sim_s": 0.0}
            )
            entry["count"] += 1
            if s.wall_s is not None:
                entry["wall_s"] += s.wall_s
            if s.sim_s is not None:
                entry["sim_s"] += s.sim_s
        return agg

    def merge_spans(self, span_dicts: list[dict],
                    parent_id: Optional[int] = None) -> None:
        """Adopt exported spans from another process into this collector.

        Every span gets a fresh id from this process's counter (worker
        ids collide across processes) with parent links remapped; spans
        that were roots in the worker are re-parented under
        ``parent_id`` — typically the driver's open ``mission`` span —
        so the report shows worker stages inside the mission tree.
        """
        id_map: dict[int, int] = {}
        for d in sorted(span_dicts, key=lambda s: s["span_id"]):
            span = Span.restore(d["name"], dict(d.get("attrs", {})),
                                d.get("wall_s"), d.get("sim_s"))
            span.parent_id = id_map.get(d.get("parent_id"), parent_id)
            id_map[d["span_id"]] = span.span_id
            self.spans.append(span)

    def reset(self) -> None:
        self.spans.clear()
        _stack.clear()


#: The process-global collector every span reports into.
collector = SpanCollector()


def span(name: str, **attrs: Any):
    """Open a span (context manager).  No-op when telemetry is off."""
    if not _state.enabled:
        return NOOP_SPAN
    parent = _stack[-1].span_id if _stack else None
    return Span(name, parent, attrs)


def current_span() -> Optional[Span]:
    """The innermost open span, if any."""
    return _stack[-1] if _stack else None
