"""Half-open interval sets on the time axis.

Wear compliance, speech episodes, room stays, co-presence, and meetings
are all naturally sets of ``[start, end)`` intervals; this module gives
them one well-tested algebra (union, intersection, difference,
complement, duration, boolean-mask round trips).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import DataError


class IntervalSet:
    """An immutable, normalized set of half-open intervals ``[start, end)``.

    Normalization sorts intervals, drops empty ones, and merges any that
    overlap or touch, so two equal sets always have equal representations.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[tuple[float, float]] = ()):
        pairs = [(float(s), float(e)) for s, e in intervals]
        for start, end in pairs:
            if end < start:
                raise DataError(f"interval end {end} before start {start}")
        pairs = [(s, e) for s, e in pairs if e > s]
        pairs.sort()
        starts: list[float] = []
        ends: list[float] = []
        for start, end in pairs:
            if starts and start <= ends[-1]:
                ends[-1] = max(ends[-1], end)
            else:
                starts.append(start)
                ends.append(end)
        self._starts = np.asarray(starts, dtype=np.float64)
        self._ends = np.asarray(ends, dtype=np.float64)

    # -- constructors -------------------------------------------------

    @classmethod
    def single(cls, start: float, end: float) -> "IntervalSet":
        """The set containing one interval."""
        return cls([(start, end)])

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return cls()

    @classmethod
    def from_mask(cls, mask: np.ndarray, t0: float = 0.0, dt: float = 1.0) -> "IntervalSet":
        """Build from a boolean sample mask on a regular grid.

        Sample ``i`` covers ``[t0 + i*dt, t0 + (i+1)*dt)``.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise DataError("mask must be one-dimensional")
        if not mask.any():
            return cls()
        padded = np.concatenate(([False], mask, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        starts = edges[0::2]
        ends = edges[1::2]
        return cls(zip(t0 + starts * dt, t0 + ends * dt))

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return int(self._starts.size)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._starts.tolist(), self._ends.tolist()))

    def __bool__(self) -> bool:
        return self._starts.size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return np.array_equal(self._starts, other._starts) and np.array_equal(
            self._ends, other._ends
        )

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._ends.tobytes()))

    def __repr__(self) -> str:
        inner = ", ".join(f"[{s:g}, {e:g})" for s, e in self)
        return f"IntervalSet({inner})"

    @property
    def starts(self) -> np.ndarray:
        """Start timestamps (read-only view)."""
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        """End timestamps (read-only view)."""
        return self._ends

    def total(self) -> float:
        """Total covered duration."""
        return float(np.sum(self._ends - self._starts))

    def contains(self, t: float) -> bool:
        """Whether timestamp ``t`` lies inside the set."""
        idx = int(np.searchsorted(self._starts, t, side="right")) - 1
        return idx >= 0 and t < self._ends[idx]

    def span(self) -> tuple[float, float]:
        """(min start, max end); raises on the empty set."""
        if not self:
            raise DataError("span() of an empty IntervalSet")
        return float(self._starts[0]), float(self._ends[-1])

    def to_mask(self, n: int, t0: float = 0.0, dt: float = 1.0) -> np.ndarray:
        """Boolean mask of ``n`` grid samples; sample i true iff its
        midpoint ``t0 + (i + 0.5) * dt`` is covered."""
        mids = t0 + (np.arange(n) + 0.5) * dt
        idx = np.searchsorted(self._starts, mids, side="right") - 1
        mask = idx >= 0
        valid = np.where(mask)[0]
        mask[valid] = mids[valid] < self._ends[idx[valid]]
        return mask

    # -- algebra ------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet(list(self) + list(other))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection (two-pointer sweep)."""
        out: list[tuple[float, float]] = []
        i = j = 0
        while i < len(self) and j < len(other):
            lo = max(self._starts[i], other._starts[j])
            hi = min(self._ends[i], other._ends[j])
            if lo < hi:
                out.append((float(lo), float(hi)))
            if self._ends[i] <= other._ends[j]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self - other``."""
        if not self:
            return IntervalSet()
        lo, hi = self.span()
        return self.intersect(other.complement(lo, hi))

    def complement(self, lo: float, hi: float) -> "IntervalSet":
        """Complement within the window ``[lo, hi)``."""
        if hi < lo:
            raise DataError(f"complement window end {hi} before start {lo}")
        out: list[tuple[float, float]] = []
        cursor = lo
        for start, end in self:
            if end <= lo:
                continue
            if start >= hi:
                break
            if start > cursor:
                out.append((cursor, min(start, hi)))
            cursor = max(cursor, end)
        if cursor < hi:
            out.append((cursor, hi))
        return IntervalSet(out)

    def clip(self, lo: float, hi: float) -> "IntervalSet":
        """Restrict to the window ``[lo, hi)``."""
        return self.intersect(IntervalSet.single(lo, hi))

    def shift(self, offset: float) -> "IntervalSet":
        """Translate every interval by ``offset`` seconds."""
        return IntervalSet(zip(self._starts + offset, self._ends + offset))


def union_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Union of many interval sets."""
    pairs: list[tuple[float, float]] = []
    for s in sets:
        pairs.extend(s)
    return IntervalSet(pairs)
