"""One badge-day's work, the same in every execution mode.

The per-badge-day work of a mission — wear simulation, sensor synthesis,
localization, summary reduction — is embarrassingly parallel once the
ground truth exists, and the pipeline was built so each day is fully
self-contained:

* every stochastic draw comes from a *day-scoped* named stream
  (:func:`repro.core.rng.badge_day_stream`), addressed by name rather
  than draw order, so a worker that replays only day ``d`` sees the
  exact bit-stream the serial driver would;
* badge clocks are zeroed by the overnight dock sync at the start of
  every day, so day ``d``'s sensing does not depend on which days ran
  before it (see :func:`repro.badges.pipeline.sense_day`);
* SD-card byte counts per day are a pure function of that day's active
  seconds, and the mission-level accountant is reconstructed by
  replaying them in day order.

:func:`compute_day` is the single source of truth for one day's work —
the serial driver calls it inline, the process-pool workers of
:func:`repro.exec.supervisor.run_days_supervised` call it on the same
:func:`day_stack`.  Parallel execution is therefore **bit-identical**
to serial for everything that reaches a
:class:`~repro.analytics.dataset.BadgeDaySummary`.

The one genuine cross-day coupling is sensing-level fault injection: an
SD-card capacity cap makes day ``d``'s truncation depend on the
cumulative (post-degrade) bytes of days ``2..d-1``.  Missions whose
fault plan has sensing events therefore run serially, and the
supervisor refuses them; bus- and data-level faults never touch
:func:`compute_day`, so those missions still fan out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analytics.dataset import BadgeDaySummary
from repro.badges.assignment import BadgeAssignment
from repro.badges.pipeline import (
    BadgeDayObservations,
    PairwiseDay,
    SensingModels,
    make_fleet,
    sense_day,
)
from repro.badges.badge import Badge
from repro.badges.sdcard import SdCardAccountant
from repro.core.config import MissionConfig
from repro.core.rng import RngRegistry, mission_sensing_registry
from repro.crew.trace import MissionTruth
from repro.faults.plan import FaultPlan
from repro.localization.pipeline import Localizer
from repro.obs import span


class ExecutorUnavailable(RuntimeError):
    """The day pool cannot run these days; the caller computes them
    serially and counts the fall-back as ``exec.fallback{reason}``."""

    def __init__(self, message: str, reason: str = "executor-unavailable") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class DayOutcome:
    """Everything one instrumented day contributes to a mission result.

    This is both the unit of parallel transfer (worker -> driver) and
    the unit of cache storage, so it carries only analysis-ready data —
    the bulky BLE scan matrices never leave the worker.
    """

    day: int
    #: badge_id -> analysis-ready summary (localization already applied).
    summaries: dict[int, BadgeDaySummary] = field(default_factory=dict)
    pairwise: PairwiseDay = None  # type: ignore[assignment]
    #: badge_id -> seconds of recorded data, for replaying the mission's
    #: SD-card accountant in day order.
    active_seconds: dict[int, float] = field(default_factory=dict)


def day_stack(
    cfg: MissionConfig, truth: MissionTruth
) -> tuple[BadgeAssignment, RngRegistry, dict[int, Badge]]:
    """The badge assignment, sensing RNG registry and fleet of a mission,
    built alike by the serial driver and every pool worker."""
    assignment = BadgeAssignment(cfg=cfg, roster=truth.roster)
    rngs = mission_sensing_registry(cfg.seed)
    return assignment, rngs, make_fleet(assignment, rngs)


def compute_day(
    cfg: MissionConfig,
    truth: MissionTruth,
    day: int,
    assignment: BadgeAssignment,
    models: SensingModels,
    localizer: Localizer,
    fleet: dict[int, Badge],
    rngs: RngRegistry,
    sdcard: SdCardAccountant,
    plan: Optional[FaultPlan],
) -> DayOutcome:
    """Sense, degrade (if faulted), and localize one instrumented day.

    The single implementation behind both execution modes.  ``sdcard``
    is mutated (day recorded, fault truncation re-recorded); parallel
    workers pass a throwaway accountant and the driver replays the
    returned ``active_seconds`` into the mission-level one.
    """
    with span("exec.compute_day", day=day):
        observations, pairwise = sense_day(
            truth, day, assignment, models, fleet, rngs, sdcard
        )
        dead = (
            plan.dead_beacons_on_day(day, cfg.daytime_start_s, cfg.daytime_s)
            if plan is not None else frozenset()
        )
        outcome = DayOutcome(day=day, pairwise=pairwise)
        if plan is not None:
            for obs in observations.values():
                degrade_day(cfg, plan, obs, sdcard)
        badge_ids = list(observations)
        locs = localizer.localize_fleet(
            [observations[b].ble_rssi for b in badge_ids],
            [observations[b].active for b in badge_ids],
            dead_beacons=dead,
        )
        for badge_id, loc in zip(badge_ids, locs):
            obs = observations[badge_id]
            obs.drop_ble()
            summary = BadgeDaySummary.from_observations(obs, loc)
            outcome.summaries[badge_id] = summary
            outcome.active_seconds[badge_id] = summary.recorded_seconds()
        return outcome


def replay_accounting(outcome: DayOutcome, sdcard: SdCardAccountant) -> None:
    """Re-record one day's (possibly cached/worker-computed) bytes.

    ``record_day`` overwrites by (badge, day) and adjusts totals by the
    delta, so replaying a day the accountant already saw is idempotent —
    the driver can replay every outcome in day order regardless of how
    each was produced.
    """
    for badge_id in sorted(outcome.active_seconds):
        sdcard.record_day(badge_id, outcome.day, outcome.active_seconds[badge_id])


def degrade_day(
    cfg: MissionConfig,
    plan: FaultPlan,
    obs: BadgeDayObservations,
    sdcard: SdCardAccountant,
) -> None:
    """Apply sensing-level faults to one badge-day, in place.

    A battery depletion stops recording from its in-day frame onward; an
    exhausted SD card stops recording once the cumulative write budget is
    spent.  The accountant entry for the day is re-recorded so storage
    totals reflect the truncated recording.

    The SD-card budget reads the accountant's *cumulative* totals, which
    is exactly the cross-day coupling that keeps faulted missions on the
    serial path.
    """
    cut = plan.battery_cut_frame(
        obs.badge_id, obs.day, cfg.daytime_start_s, len(obs.active), cfg.frame_dt
    )
    changed = False
    if cut is not None:
        obs.active[cut:] = False
        obs.worn[cut:] = False
        changed = True
    # Card budget available for *this* day: capacity minus what the badge
    # had written on the preceding days.
    written_before = sdcard.badge_total(obs.badge_id) - obs.bytes_recorded
    budget = sdcard.capacity_for(obs.badge_id) - written_before
    budget_frames = int(max(0.0, budget) / (sdcard.total_rate_bps * cfg.frame_dt))
    active_idx = np.flatnonzero(obs.active)
    if len(active_idx) > budget_frames:
        # Clear ``worn`` along with ``active``, like the battery path:
        # a card that stopped recording must not leave worn-but-silent
        # frames behind, or the quality gate reads the executor's own
        # day-masking as dirty data and downgrades the verdict.
        cut_idx = active_idx[budget_frames:]
        obs.active[cut_idx] = False
        obs.worn[cut_idx] = False
        changed = True
    if changed:
        obs.bytes_recorded = sdcard.record_day(
            obs.badge_id, obs.day, float(obs.active.sum()) * cfg.frame_dt
        )
