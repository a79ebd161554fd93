"""The machine reading printed with every run, so drift between sets of
runs shows: a fixed numpy calibration workload, a pure-Python speed probe
taken between requests, core count, versions and the commit measured."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import ROOT

#: Runs ``calibration_seconds`` from ``benchmarks/perf_guard.py`` in a
#: child interpreter, so its 2000x2000 arrays stay out of this process's
#: peak resident memory.
_CALIBRATE = (
    "import sys; sys.path.insert(0, '.'); "
    "from benchmarks.perf_guard import calibration_seconds; "
    "print(calibration_seconds())"
)


def calibration_s() -> float:
    done = subprocess.run([sys.executable, "-c", _CALIBRATE], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def probe_s() -> float:
    """Seconds a fixed pure-Python loop takes, none of the program's code in
    it: a reading of the machine's speed at this moment."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(50_000):
        table[i % 1000] = table.get(i % 1000, 0) + (i * 7) % 13
    return time.perf_counter() - t0


def commit(root: Path = ROOT) -> str:
    """HEAD of the checkout's git metadata, read from its files; ``unknown``
    when the checkout carries none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reading(probes: list[float]) -> dict:
    """The machine reading, with the speed probes taken during the run."""
    import numpy

    return {
        "host.calibration_s": round(calibration_s(), 4),
        "host.probe_s": {"min": round(min(probes), 4),
                         "median": round(statistics.median(probes), 4),
                         "max": round(max(probes), 4), "n": len(probes)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }
