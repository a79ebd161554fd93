"""Data-corruption fault application.

:func:`apply_data_faults` replays a plan's :data:`~repro.faults.plan.DATA_ACTIONS`
events onto an assembled :class:`~repro.analytics.dataset.MissionSensing`,
producing the kind of damage a real deployment's storage and clock layer
inflicts *after* sensing: bit-rot in stored arrays, truncated badge-days,
frame duplication, stuck-at sensor values, and clock desync beyond what
the time-sync simulator corrects.

Corruption is copy-on-write — the struck summaries are replaced with
corrupted copies and the input dataset is never mutated (its arrays may
be shared with stored day outcomes).  Every event's damage is
seeded from ``(cfg.seed, event index)``, so the same config + plan
always corrupts identically, which is what lets a seeded corruption
campaign reproduce the identical
:class:`~repro.quality.report.DataQualityReport` byte for byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analytics.dataset import BadgeDaySummary, MissionSensing
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics

log = get_logger("repro.faults.data")

#: Seed-stream constant separating corruption draws from every other
#: consumer of the mission seed.
_STREAM = 0xDA7AFA17

#: Float channels bit-rot garbles (mirrors the summary's sensor streams).
_CORRUPTIBLE = (
    "x", "y", "accel_rms", "voice_db", "dominant_pitch_hz",
    "pitch_stability", "sound_db",
)
_ALL_ARRAYS = ("active", "worn", "room") + _CORRUPTIBLE

#: Garbage values bit-rot writes (NaN runs, infinities, absurd numbers).
_GARBAGE = (float("nan"), float("inf"), -float("inf"), -1e9, 1e9)


def _copy_arrays(summary: BadgeDaySummary) -> dict[str, np.ndarray]:
    return {name: getattr(summary, name).copy() for name in _ALL_ARRAYS}


def _corrupt_bitrot(arrays: dict[str, np.ndarray], event: FaultEvent,
                    rng: np.random.Generator) -> None:
    """Garbage written over a random fraction of frames."""
    n = arrays["active"].shape[0]
    struck = max(1, int(event.value * n))
    frames = rng.choice(n, size=min(struck, n), replace=False)
    for frame in frames:
        channel = _CORRUPTIBLE[int(rng.integers(len(_CORRUPTIBLE)))]
        arrays[channel][frame] = _GARBAGE[int(rng.integers(len(_GARBAGE)))]
    # A few frames lose their room estimate to an impossible index too.
    rooms = frames[: max(1, len(frames) // 4)]
    arrays["room"][rooms] = 127


def _corrupt_truncate(arrays: dict[str, np.ndarray], event: FaultEvent,
                      rng: np.random.Generator) -> None:
    """The tail of the day never makes it to storage."""
    n = arrays["active"].shape[0]
    keep = int(event.value * n)
    for name in _ALL_ARRAYS:
        arrays[name] = arrays[name][:keep]


def _corrupt_duplicate(arrays: dict[str, np.ndarray], event: FaultEvent,
                       rng: np.random.Generator) -> None:
    """A segment of frames is written twice (and lands out of order)."""
    n = arrays["active"].shape[0]
    seg = max(1, int(event.value * n))
    start = int(rng.integers(max(1, n - seg)))
    for name in _ALL_ARRAYS:
        a = arrays[name]
        arrays[name] = np.concatenate(
            [a[: start + seg], a[start : start + seg], a[start + seg :]]
        )


def _corrupt_stuck(arrays: dict[str, np.ndarray], event: FaultEvent,
                   rng: np.random.Generator) -> None:
    """The accelerometer latches to a constant for a stretch of the day."""
    n = arrays["active"].shape[0]
    run = max(1, int(event.value * n))
    start = int(rng.integers(max(1, n - run)))
    accel = arrays["accel_rms"]
    stuck_value = accel[start]
    if not np.isfinite(stuck_value):
        stuck_value = np.float32(0.123)
    accel[start : start + run] = stuck_value


_CORRUPTIONS = {
    "data-bitrot": _corrupt_bitrot,
    "data-truncate": _corrupt_truncate,
    "data-duplicate": _corrupt_duplicate,
    "data-stuck": _corrupt_stuck,
}


def apply_data_faults(sensing: MissionSensing, plan: FaultPlan,
                      seed: int) -> MissionSensing:
    """Replay the plan's data-corruption events onto a copy of the dataset.

    Events striking a badge-day that does not exist (dead badge, day out
    of range) are no-ops, like bit-rot in a file never written.  Returns
    the input unchanged (same object) when the plan has no data events.
    """
    by_key = plan.data_events_by_badge_day()
    if not by_key:
        return sensing
    order = {id(e): k for k, e in enumerate(plan.data_events())}
    summaries = dict(sensing.summaries)
    struck = 0
    for key in sorted(by_key):
        if key not in summaries:
            continue
        summary = summaries[key]
        arrays = _copy_arrays(summary)
        t0 = summary.t0
        for event in by_key[key]:
            rng = np.random.default_rng((seed, _STREAM, order[id(event)]))
            if event.action == "data-clock-skew":
                t0 += event.value
            else:
                _CORRUPTIONS[event.action](arrays, event, rng)
            if _obs.enabled:
                _metrics.counter(
                    "faults.data_events", "data-corruption events applied, by kind"
                ).inc(kind=event.action)
        # true_room is the simulator's evaluation aid, not stored data —
        # keep it aligned with the (possibly resized) corrupted arrays.
        true_room = summary.true_room
        if true_room is not None and arrays["active"].shape[0] != true_room.shape[0]:
            n = arrays["active"].shape[0]
            if n <= true_room.shape[0]:
                true_room = true_room[:n]
            else:
                true_room = np.concatenate([
                    true_room,
                    np.full(n - true_room.shape[0], -1, dtype=true_room.dtype),
                ])
        summaries[key] = dataclasses.replace(
            summary, t0=t0, true_room=true_room, **arrays
        )
        struck += 1
        log.info("badge-day-corrupted", badge=key[0], day=key[1],
                 events=len(by_key[key]))
    if _obs.enabled and struck:
        _metrics.counter(
            "faults.data_badge_days", "badge-days struck by data corruption"
        ).inc(struck)
    return MissionSensing(
        cfg=sensing.cfg, plan=sensing.plan, assignment=sensing.assignment,
        summaries=summaries, pairwise=sensing.pairwise,
        quality=sensing.quality,
    )
