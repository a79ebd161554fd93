"""Wear-compliance model.

"An average badge was worn for 63% of daytime and for 84% of daytime it
was active but not necessarily worn on the neck" — the gap comes from
EVAs (no badges under spacesuits), restrooms, physical exercise, mid-day
charging stints, and, increasingly as the mission wore on, badges simply
left on desks ("the fraction of daytime when the analog astronauts wore
our badges dropped from about 80% to about 50%").  The model reproduces
all of these, and tracks where an unworn badge physically rests — an
unworn-but-active badge keeps recording from wherever it was set down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MissionConfig
from repro.core.errors import SimulationError
from repro.core.units import MINUTE
from repro.badges.battery import BatteryModel
from repro.crew.tasks import Activity
from repro.crew.trace import DayTrace
from repro.habitat.floorplan import FloorPlan
from repro.habitat.geometry import Point

#: Length bounds of a voluntary "left on the desk" episode.
DESK_EPISODE_MIN_S = 20 * MINUTE
DESK_EPISODE_MAX_S = 70 * MINUTE
#: Compliance tolerance when inserting desk episodes.
COMPLIANCE_TOL = 0.02
#: Minimum time settled in a room before a badge may be set down.
SETTLED_S = 12 * MINUTE


@dataclass
class WearDay:
    """One badge-day of wear state and badge whereabouts."""

    worn: np.ndarray       # (frames,) bool -- on the wearer's neck
    active: np.ndarray     # (frames,) bool -- powered and recording
    badge_xy: np.ndarray   # (frames, 2) float32 -- where the badge is
    badge_room: np.ndarray  # (frames,) int8

    @property
    def worn_fraction(self) -> float:
        return float(self.worn.mean())

    @property
    def active_fraction(self) -> float:
        return float(self.active.mean())


class WearModel:
    """Simulates daily wear state for a badge on one astronaut."""

    def __init__(
        self,
        cfg: MissionConfig,
        plan: FloorPlan,
        battery: BatteryModel | None = None,
        station_xy: Point | None = None,
    ):
        self.cfg = cfg
        self.plan = plan
        self.battery = battery if battery is not None else BatteryModel()
        self.station_xy = (
            station_xy if station_xy is not None else plan.room("main").rect.center
        )
        self.station_room = int(plan.locate(self.station_xy))

    def compliance_on(self, day: int) -> float:
        """Target worn fraction for a day (linear decay across the mission)."""
        cfg = self.cfg
        span = max(cfg.days - cfg.badges_from_day, 1)
        frac = np.clip((day - cfg.badges_from_day) / span, 0.0, 1.0)
        return float(
            cfg.wear_compliance_start
            + (cfg.wear_compliance_end - cfg.wear_compliance_start) * frac
        )

    def simulate_day(
        self,
        trace: DayTrace,
        rng: np.random.Generator,
        diligence: float = 1.0,
    ) -> WearDay:
        """Wear state of the badge worn by ``trace``'s astronaut that day.

        ``diligence`` scales the day's compliance target per wearer.
        """
        n = trace.n_frames
        dt = trace.dt
        active = np.ones(n, dtype=bool)

        # Battery: charging stints / dead tails.
        battery_windows = self.battery.plan_day(n * dt, rng)
        at_station = np.zeros(n, dtype=bool)
        for start, end in battery_windows:
            i0, i1 = int(start / dt), int(np.ceil(end / dt))
            is_dead_tail = end >= n * dt - dt
            active[i0:i1] = False
            if not is_dead_tail:
                at_station[i0:i1] = True  # docked at the charging station

        # Hard non-wear: activities that forbid the badge.
        wearable = np.array(
            [Activity(int(a)).badge_wearable for a in range(int(trace.activity.max()) + 1)]
        )
        worn = active & trace.present() & wearable[trace.activity] & ~at_station

        # Voluntary desk episodes to meet the day's compliance target.
        target = self.compliance_on(trace.day) * diligence
        self._insert_desk_episodes(worn, trace, target, dt, rng)

        badge_xy, badge_room = self._badge_whereabouts(trace, worn, at_station)
        return WearDay(worn=worn, active=active, badge_xy=badge_xy, badge_room=badge_room)

    # -- internals -------------------------------------------------------

    def _insert_desk_episodes(
        self,
        worn: np.ndarray,
        trace: DayTrace,
        target: float,
        dt: float,
        rng: np.random.Generator,
    ) -> None:
        """Clear chunks of ``worn`` until the day's fraction meets target.

        Badges are set down at one's own workplace, not mid-visit: an
        episode may only start after the wearer has been settled in the
        current room for a while, so a colleague's desk never strands
        the badge.
        """
        n = worn.shape[0]
        settled = self._settled_mask(trace.room, int(round(SETTLED_S / dt)))
        # Episodes only ever clear frames of ``worn``, so the worn count
        # and the sorted candidate frames are updated per episode, not
        # recomputed over the day; ``n_worn / n`` is ``worn.mean()`` to
        # the bit.
        n_worn = int(np.count_nonzero(worn))
        candidates = np.flatnonzero(
            worn & settled & (trace.activity == int(Activity.WORK))
        )
        for _ in range(200):
            if candidates.size == 0 or n_worn / n <= target + COMPLIANCE_TOL:
                return
            start = int(candidates[int(rng.integers(candidates.size))])
            length = int(rng.uniform(DESK_EPISODE_MIN_S, DESK_EPISODE_MAX_S) / dt)
            end = min(start + length, n)
            # One puts the badge back on when leaving the room (so a badge
            # on a desk never misses the meeting its wearer rushes off to).
            departures = np.flatnonzero(trace.room[start:end] != trace.room[start])
            if departures.size:
                end = start + int(departures[0])
            n_worn -= int(np.count_nonzero(worn[start:end]))
            worn[start:end] = False
            lo, hi = np.searchsorted(candidates, (start, end))
            candidates = np.concatenate((candidates[:lo], candidates[hi:]))
        # Compliance is a behavioral target, not an invariant: on days
        # packed with short stays there may be too few settled stretches
        # to shed enough wear time; best effort is the right model.

    @staticmethod
    def _settled_mask(room: np.ndarray, min_frames: int) -> np.ndarray:
        """Frames where the wearer has been in the same room >= min_frames."""
        n = room.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        change = np.concatenate([[True], room[1:] != room[:-1]])
        run_start = np.maximum.accumulate(np.where(change, np.arange(n), 0))
        return (np.arange(n) - run_start) >= min_frames

    def _badge_whereabouts(
        self,
        trace: DayTrace,
        worn: np.ndarray,
        at_station: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Where the badge is each frame: on the neck, on a desk, or docked."""
        n = trace.n_frames
        xy = np.column_stack([trace.x, trace.y]).astype(np.float32)
        # Forward-fill from the last worn frame (badge stays where set down).
        idx = np.where(worn, np.arange(n), -1)
        last_worn = np.maximum.accumulate(idx)
        badge_xy = np.empty((n, 2), dtype=np.float32)
        has_prior = last_worn >= 0
        badge_xy[has_prior] = xy[last_worn[has_prior]]
        badge_xy[~has_prior] = np.float32(self.station_xy)  # overnight dock
        badge_xy[at_station] = np.float32(self.station_xy)
        # NaN positions can only come from a worn badge outside (EVA), where
        # the badge is actually left in the airlock; forward-fill covers it,
        # but guard against a worn+outside combination slipping through.
        nan_rows = np.isnan(badge_xy).any(axis=1)
        if nan_rows.any():
            badge_xy[nan_rows] = np.float32(self.plan.room("airlock").rect.center)
        # The badge rests for long runs of frames: locate each run once.
        moved = np.ones(n, dtype=bool)
        moved[1:] = (badge_xy[1:] != badge_xy[:-1]).any(axis=1)
        starts = np.flatnonzero(moved)
        badge_room = np.repeat(
            self.plan.locate_many(badge_xy[starts].astype(np.float64)),
            np.diff(starts, append=n),
        )
        return badge_xy, badge_room
