"""Process-global metrics registry: counters, gauges, histograms.

All three instrument types share the same shape: a *name* identifies the
metric, and each observation may carry **labels** (keyword arguments)
that split the metric into series — e.g. ``bus.dropped`` by ``kind`` and
``reason``.  The registry is process-global (mirroring how the badge
firmware would expose one metrics endpoint per device) and
test-resettable via :func:`reset`.

Every mutation checks the telemetry master switch first, so an
instrumented call site costs one attribute read when telemetry is off.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Optional

from repro.obs import _state

#: A label set is stored as a sorted tuple of ``(key, value)`` pairs so
#: it is hashable and order-insensitive.
LabelKey = tuple


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count, split by labels."""

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not _state.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current count for one label set (0 if never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._series.values())

    def snapshot(self) -> dict:
        return {
            "type": "counter",
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ],
        }


class Gauge:
    """Last-written value, split by labels (queue depths, battery %)."""

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not _state.enabled:
            return
        self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        if not _state.enabled:
            return
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> Optional[float]:
        return self._series.get(_label_key(labels))

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ],
        }


class _HistogramSeries:
    """Raw observations for one label set (reservoir-capped)."""

    __slots__ = ("count", "sum", "min", "max", "values")

    #: Keep at most this many raw values per series; beyond it we keep
    #: count/sum/min/max exact and percentiles approximate (computed over
    #: the retained prefix), which is plenty for a report.
    CAP = 10_000

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.values) < self.CAP:
            self.values.append(value)


class Histogram:
    """Distribution of observations with percentile queries."""

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if not _state.enabled:
            return
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        series.observe(float(value))

    def count(self, **labels: Any) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def percentile(self, q: float, **labels: Any) -> float:
        """q-th percentile (q in [0, 100]) by linear interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q={q} out of [0, 100]")
        series = self._series.get(_label_key(labels))
        if series is None or not series.values:
            return math.nan
        return self._pct(series.values, q)

    def merge_series(
        self,
        labels: dict,
        count: int,
        sum_: float,
        min_: Optional[float],
        max_: Optional[float],
        values: Optional[list] = None,
    ) -> None:
        """Fold another process's series into this one.

        ``count``/``sum``/``min``/``max`` stay exact; raw values (used
        for percentiles) are taken up to the reservoir cap.
        """
        if not _state.enabled or count <= 0:
            return
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        series.count += int(count)
        series.sum += float(sum_)
        if min_ is not None and min_ < series.min:
            series.min = float(min_)
        if max_ is not None and max_ > series.max:
            series.max = float(max_)
        if values:
            room = _HistogramSeries.CAP - len(series.values)
            if room > 0:
                series.values.extend(float(v) for v in values[:room])

    def snapshot(self, include_values: bool = False) -> dict:
        out = []
        for key, series in sorted(self._series.items()):
            entry = {
                "labels": dict(key),
                "count": series.count,
                "sum": series.sum,
                "min": series.min if series.count else None,
                "max": series.max if series.count else None,
            }
            if series.values:
                entry["p50"] = self._pct(series.values, 50.0)
                entry["p95"] = self._pct(series.values, 95.0)
                entry["p99"] = self._pct(series.values, 99.0)
            if include_values:
                entry["values"] = list(series.values)
            out.append(entry)
        return {"type": "histogram", "help": self.help, "series": out}

    @staticmethod
    def _pct(values: list[float], q: float) -> float:
        """q-th percentile of non-empty ``values`` by linear interpolation."""
        ordered = sorted(values)
        if len(ordered) == 1:
            return ordered[0]
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        if frac == 0.0:
            # On a sample: interpolating would weigh an infinite
            # neighbour by 0.0, which is NaN.
            return ordered[lo]
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """Name -> metric map.  ``counter()``/``gauge()``/``histogram()`` are
    get-or-create, so call sites never need registration boilerplate."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls(name, help)
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def snapshot(self, include_values: bool = False) -> dict:
        """Serializable view of every metric, sorted by name.

        ``include_values=True`` additionally embeds each histogram's
        retained raw observations, making the snapshot *mergeable* into
        another process's registry with exact percentiles — the format
        parallel mission workers ship back to the driver.
        """
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot(include_values=include_values)
            else:
                out[name] = metric.snapshot()
        return out

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another process into this registry.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge exactly where the snapshot carried raw values
        (``include_values=True`` at the source) and approximately
        (count/sum/min/max only) where it did not.  No-op while
        telemetry is disabled.
        """
        if not _state.enabled:
            return
        for name, data in snapshot.items():
            mtype = data.get("type")
            if mtype == "counter":
                counter = self.counter(name, data.get("help", ""))
                for series in data.get("series", []):
                    counter.inc(series["value"], **series["labels"])
            elif mtype == "gauge":
                gauge = self.gauge(name, data.get("help", ""))
                for series in data.get("series", []):
                    gauge.set(series["value"], **series["labels"])
            elif mtype == "histogram":
                hist = self.histogram(name, data.get("help", ""))
                for series in data.get("series", []):
                    hist.merge_series(
                        series["labels"],
                        series.get("count", 0),
                        series.get("sum", 0.0),
                        series.get("min"),
                        series.get("max"),
                        series.get("values"),
                    )

    def reset(self) -> None:
        """Drop every metric (tests call this between cases)."""
        with self._lock:
            self._metrics.clear()


#: The process-global registry all instrumentation writes to.
registry = MetricsRegistry()

counter = registry.counter
gauge = registry.gauge
histogram = registry.histogram
