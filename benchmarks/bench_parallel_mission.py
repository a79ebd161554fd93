"""Benchmarks of the execution engine: parallel speedup and cache reuse.

Two claims are measured:

1. Fanning the 14-day mission's badge-day work across 4 workers is at
   least 2x faster than the serial walk (asserted only where 4+ CPUs
   exist; the timing report is printed everywhere).
2. Re-running an ablation sweep against a warm content-addressed cache
   costs under 25% of the cold run — the sweep's missions load their
   ground truth and day summaries instead of recomputing them.

Both runs are also checked for bit-identical summaries: the execution
engine must never trade correctness for speed.  Timings vary run to run,
so both reports are printed (``pytest -s``), never written to a tracked
file.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.config import ExecutionConfig, MissionConfig
from repro.experiments.ablations import ablate_wear_compliance
from repro.experiments.mission import run_mission

_SUMMARY_ARRAYS = (
    "active", "worn", "room", "x", "y", "accel_rms", "voice_db",
    "dominant_pitch_hz", "pitch_stability", "sound_db", "true_room",
)


def assert_identical(a, b) -> None:
    """Bitwise equality of every badge-day summary (NaNs included)."""
    assert set(a.sensing.summaries) == set(b.sensing.summaries)
    for key in a.sensing.summaries:
        sa = a.sensing.summaries[key]
        sb = b.sensing.summaries[key]
        for name in _SUMMARY_ARRAYS:
            va, vb = getattr(sa, name), getattr(sb, name)
            if va is None or vb is None:
                assert va is None and vb is None, (key, name)
            else:
                assert va.tobytes() == vb.tobytes(), (key, name)
        assert sa.bytes_recorded == sb.bytes_recorded, key
        assert sa.n_sync_events == sb.n_sync_events, key
    assert a.sdcard.total_gib() == b.sdcard.total_gib()


@pytest.mark.tier2
def test_parallel_speedup_14_day_mission():
    cfg = MissionConfig()  # the paper's 14-day mission

    t0 = time.perf_counter()
    serial = run_mission(cfg)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_mission(cfg, truth=serial.truth,
                           execution=ExecutionConfig(n_workers=4))
    t_parallel = time.perf_counter() - t0

    assert_identical(serial, parallel)

    cpus = os.cpu_count() or 1
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    print(
        f"\n14-day mission, {cpus} CPUs\n"
        f"  serial:             {t_serial:8.1f} s\n"
        f"  parallel (4 workers): {t_parallel:6.1f} s\n"
        f"  speedup:            {speedup:8.2f}x\n"
        f"  summaries:          bit-identical",
    )
    if cpus >= 4:
        assert speedup >= 2.0, f"expected >=2x on {cpus} CPUs, got {speedup:.2f}x"


@pytest.mark.tier2
def test_warm_cache_ablation_rerun(tmp_path):
    cfg = MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)
    execution = ExecutionConfig(cache_dir=str(tmp_path / "cache"))
    levels = (0.9, 0.5)

    t0 = time.perf_counter()
    cold = ablate_wear_compliance(cfg, levels=levels, execution=execution)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = ablate_wear_compliance(cfg, levels=levels, execution=execution)
    t_warm = time.perf_counter() - t0

    for level in levels:
        for metric, value in cold[level].items():
            assert np.isclose(value, warm[level][metric], rtol=0, atol=0), (
                level, metric)

    print(
        f"\nwear-compliance sweep, {len(levels)} levels, {cfg.days}-day missions\n"
        f"  cold (empty cache): {t_cold:6.1f} s\n"
        f"  warm (cache hits):  {t_warm:6.1f} s\n"
        f"  warm/cold:          {t_warm / t_cold:6.1%}",
    )
    assert t_warm < 0.25 * t_cold, (
        f"warm re-run took {t_warm / t_cold:.0%} of cold (limit 25%)")
