"""Perf-regression guard: every pipeline stage against its own budget.

The guard reads its stage times from the ``repro.obs`` span tree, the
same timer ``repro telemetry`` prints, so a regression names the span
that slowed.  It measures

1. a fixed numpy **calibration workload** (pins the machine's array
   throughput), and
2. the wall time of each guarded **span** in the telemetry of the
   benchmark mission (``MissionConfig(days=2, seed=13, events=None)``),
   least of 3 runs.  The mission instruments only day 2, so one run
   holds the whole crew truth and one day of sensing and localization,

then compares each machine-normalized ratio ``span / calibration``
against its checked-in budget: ``per_calibration`` in
``benchmarks/perf_budget.json``, keyed by span name, so guarding one
more stage is one more budget line.  A stage more than ``headroom``
(25%) over budget prints one ``PERF REGRESSION: <span> ...`` line on
stderr and makes the guard exit 1.  The report goes to stdout as JSON;
the guard writes no file.

Run it directly::

    PYTHONPATH=src python benchmarks/perf_guard.py > perf-guard.json
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BUDGET_PATH = Path(__file__).parent / "perf_budget.json"


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


def stage_seconds(stages, rounds: int = 3) -> dict[str, float]:
    """Least wall time of each span in ``stages`` over ``rounds`` runs of
    the benchmark mission, read from its telemetry's span breakdown.

    ``repro`` is imported here, not at module level: perfbench imports
    :func:`calibration_seconds` in an interpreter without ``src`` on
    its path.
    """
    from repro import obs
    from repro.core.config import MissionConfig
    from repro.experiments.mission import run_mission

    best = dict.fromkeys(stages, float("inf"))
    for _ in range(rounds):
        obs.enable()
        try:
            result = run_mission(MissionConfig(days=2, seed=13, events=None))
        finally:
            obs.reset()
        breakdown = result.telemetry["span_breakdown"]
        for stage in best:
            if stage not in breakdown:
                raise LookupError(
                    f"span {stage} is not in the benchmark mission's span tree")
            best[stage] = min(best[stage], breakdown[stage]["wall_s"])
    return best


def judge(seconds: dict[str, float], calibration_s: float, budget: dict) -> dict:
    """Compare each budgeted stage's ``seconds / calibration_s`` with its
    budget plus the headroom."""
    headroom = budget["headroom"]
    stages = {}
    for stage, per_calibration in budget["per_calibration"].items():
        ratio = seconds[stage] / calibration_s
        limit = per_calibration * (1.0 + headroom)
        stages[stage] = {
            "seconds": round(seconds[stage], 4),
            "per_calibration": round(ratio, 3),
            "budget_per_calibration": per_calibration,
            "limit_per_calibration": round(limit, 3),
            "ok": ratio <= limit,
        }
    return {
        "calibration_s": round(calibration_s, 4),
        "headroom": headroom,
        "stages": stages,
        "ok": all(s["ok"] for s in stages.values()),
    }


def main() -> int:
    budget = json.loads(BUDGET_PATH.read_text())
    calibration_s = calibration_seconds()
    report = judge(stage_seconds(budget["per_calibration"]), calibration_s, budget)
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
