"""Day-compute performance regression guard: sensing and crew truth.

The fleet-batched sensing API bought a >5x speedup of the per-day hot
path (``compute_day``: wear + sensor synthesis + localization + summary
reduction), and scalar draws plus a per-day walk pass bought about 4x
on crew truth (``simulate_mission``); this guard keeps both.  It
measures

1. a fixed numpy **calibration workload** (pins the machine's array
   throughput), and
2. each guarded **stage** on the standard benchmark mission
   (``MissionConfig(days=2, seed=13, events=None)``), best of 3:

   * ``day_compute``: the day-compute path of day 2;
   * ``crew``: ``simulate_mission``, the whole crew truth,

then compares each machine-normalized ratio ``stage / calibration``
against its checked-in budget (``benchmarks/perf_budget.json``).  A
stage more than ``headroom`` (25%) over budget exits non-zero with one
line naming the stage, and every run writes its raw measurements to
``benchmarks/output/day_compute_guard.json`` for artifact upload and
cross-run diffing.

Run it directly::

    PYTHONPATH=src python benchmarks/perf_guard.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BUDGET_PATH = Path(__file__).parent / "perf_budget.json"
REPORT_PATH = Path(__file__).parent / "output" / "day_compute_guard.json"


def calibration_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` timing of a fixed array workload.

    Three passes of sqrt/log10/column-cumsum over a 2000x2000 float64
    matrix — a mix of elementwise transcendental and strided traffic
    that tracks how fast this machine runs the pipeline's own numpy
    kernels.  Normalizing by it makes the budget portable between a
    laptop and a CI runner.
    """
    rng = np.random.default_rng(0)
    a = rng.random((2000, 2000))
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(3):
            b = np.sqrt(a)
            b += np.log10(a + 1.0)
            b = np.cumsum(b, axis=0)
        best = min(best, time.perf_counter() - t0)
    return best


def _benchmark_mission():
    from repro.core.config import MissionConfig

    return MissionConfig(days=2, seed=13, events=None)


def day_compute_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` timing of one full instrumented day."""
    from repro.badges.assignment import BadgeAssignment
    from repro.badges.pipeline import SensingModels, make_fleet
    from repro.badges.sdcard import SdCardAccountant
    from repro.core.rng import RngRegistry
    from repro.crew.behavior import simulate_mission
    from repro.exec.executor import compute_day
    from repro.localization.pipeline import Localizer

    cfg = _benchmark_mission()
    truth = simulate_mission(cfg)
    assignment = BadgeAssignment(cfg=cfg, roster=truth.roster)
    models = SensingModels.default(cfg, truth.plan)
    localizer = Localizer(truth.plan, models.beacons)
    best = float("inf")
    for _ in range(rounds):
        rngs = RngRegistry(3)
        fleet = make_fleet(assignment, rngs)
        t0 = time.perf_counter()
        compute_day(
            cfg, truth, 2, assignment, models, localizer, fleet, rngs,
            SdCardAccountant(), None,
        )
        best = min(best, time.perf_counter() - t0)
    return best


def crew_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` timing of the mission's whole crew truth."""
    from repro.crew.behavior import simulate_mission

    cfg = _benchmark_mission()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        simulate_mission(cfg)
        best = min(best, time.perf_counter() - t0)
    return best


#: Guarded stages; each has a ``<stage>_per_calibration`` budget in
#: ``perf_budget.json``.
STAGES = {"day_compute": day_compute_seconds, "crew": crew_seconds}


def run_guard(rounds: int = 3) -> dict:
    """Measure, compare every stage against its budget, and write the report."""
    budget = json.loads(BUDGET_PATH.read_text())
    calibration_s = calibration_seconds(rounds)
    stages = {}
    for stage, seconds_of in STAGES.items():
        seconds = seconds_of(rounds)
        ratio = seconds / calibration_s
        per_calibration = budget[f"{stage}_per_calibration"]
        limit = per_calibration * (1.0 + budget["headroom"])
        stages[stage] = {
            "seconds": round(seconds, 4),
            "per_calibration": round(ratio, 3),
            "budget_per_calibration": per_calibration,
            "limit_per_calibration": round(limit, 3),
            "ok": ratio <= limit,
        }
    report = {
        "calibration_s": round(calibration_s, 4),
        "headroom": budget["headroom"],
        "stages": stages,
        "ok": all(s["ok"] for s in stages.values()),
    }
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> int:
    report = run_guard()
    print(json.dumps(report, indent=2))
    for stage, s in report["stages"].items():
        if not s["ok"]:
            print(
                f"PERF REGRESSION: {stage} is {s['per_calibration']:.2f}x the "
                f"calibration workload, limit {s['limit_per_calibration']:.2f}x "
                f"(budget {s['budget_per_calibration']:.2f}x + "
                f"{report['headroom']:.0%} headroom)",
                file=sys.stderr,
            )
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
