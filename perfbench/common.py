"""What every workload shares: the measurement record and small helpers."""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench.digest import digest
from perfbench.spans import Span

#: Directory of the benchmark's own files.
HERE = Path(__file__).resolve().parent
#: Root of the checkout the benchmark measures.
ROOT = HERE.parent


@dataclass
class Measured:
    """One measured phase of a workload."""

    #: Seconds each completed request took, by request index.
    latencies: dict[int, float] = field(default_factory=dict)
    #: Wall seconds the phase measured (throughput denominator).
    wall_s: float = 0.0
    #: Badge-days delivered by completed requests.
    badge_days: int = 0
    attempted: int = 0
    #: Requests that failed or whose outputs failed a check.
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Content digest of each request's outputs, by request index.
    digests: dict[int, str] = field(default_factory=dict)
    #: Spans of a traced phase, merged across processes.
    spans: list[Span] = field(default_factory=list)
    #: Layer figures read from the program's own records (the service
    #: registry's timestamps, quarantine counts).
    extra: dict = field(default_factory=dict)
    #: Peak resident memory of processes the phase started, in MiB.
    child_rss_mb: float = 0.0
    #: Speed probes taken between requests (``host.probe_s``).
    probes: list[float] = field(default_factory=list)

    def record(self, index: int, latency: float, badge_days: int,
               failures: list[str], content: str) -> None:
        self.attempted += 1
        self.latencies[index] = latency
        self.badge_days += badge_days
        self.digests[index] = content
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def digest(self, n: int) -> str:
        """Digest of the outputs of requests 0 .. n-1."""
        if any(i not in self.digests for i in range(n)):
            return "incomplete"
        return digest([self.digests[i] for i in range(n)])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> Optional[float]:
    """The nearest-rank ``q`` quantile (0..1), or None unless at least ten
    samples lie beyond it."""
    rank = max(1, math.ceil(q * len(values)))
    if len(values) - rank < 10:
        return None
    return sorted(values)[rank - 1]


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_probe(args: list[str], timeout_s: float = 60.0) -> float:
    """Wall seconds a fresh interpreter takes to run ``setup_probe.py``."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT, check=True, timeout=timeout_s,
        stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def count_quarantined(*roots: Path) -> int:
    """Files the program's stores moved to a ``quarantine`` directory."""
    return sum(
        1 for root in roots if root.exists()
        for path in root.rglob("*") if path.is_file() and "quarantine" in path.parts)
