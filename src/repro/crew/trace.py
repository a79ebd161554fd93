"""Ground-truth mission traces.

The crew simulation emits, per astronaut per day, frame-aligned arrays
of position, room, motion, and speech.  Everything downstream — badge
sensors, radio links, analytics — derives from these traces, and tests
compare pipeline outputs against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import MissionConfig
from repro.core.errors import DataError
from repro.crew.roster import Roster
from repro.crew.schedule import DaySchedule
from repro.habitat.floorplan import FloorPlan


@dataclass
class DayTrace:
    """One astronaut's ground truth for one day's daytime.

    All arrays have one entry per frame (default 1 Hz).  ``room`` uses
    floor-plan indices with ``OUTSIDE`` (-1) for EVA surface work or
    absence; positions are NaN outside the habitat.
    """

    astro_id: str
    day: int
    t0: float
    dt: float
    room: np.ndarray        # int8
    x: np.ndarray           # float32
    y: np.ndarray           # float32
    walking: np.ndarray     # bool
    speaking: np.ndarray    # bool -- this astronaut is producing speech
    loudness: np.ndarray    # float32, dB SPL at 1 m while speaking
    machine_speech: np.ndarray  # bool -- assistive TTS audible at this astronaut
    activity: np.ndarray    # int8 Activity codes

    def __post_init__(self) -> None:
        n = self.room.shape[0]
        for name in ("x", "y", "walking", "speaking", "loudness", "machine_speech", "activity"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise DataError(f"{name} has shape {arr.shape}, expected ({n},)")

    @property
    def n_frames(self) -> int:
        return int(self.room.shape[0])

    def positions(self) -> np.ndarray:
        """``(n, 2)`` float64 positions (NaN where outside)."""
        return np.column_stack([self.x, self.y]).astype(np.float64)

    def present(self) -> np.ndarray:
        """Mask of frames where the astronaut is inside the habitat."""
        return self.room >= 0

    def times(self) -> np.ndarray:
        """Seconds-of-day timestamps per frame."""
        return self.t0 + np.arange(self.n_frames) * self.dt


@dataclass
class EventRecord:
    """One scripted or emergent event, for annotations and tests."""

    day: int
    time_s: float
    kind: str
    info: dict = field(default_factory=dict)


@dataclass
class MissionTruth:
    """Ground truth for a whole mission."""

    cfg: MissionConfig
    roster: Roster
    plan: FloorPlan
    traces: dict[tuple[str, int], DayTrace] = field(default_factory=dict)
    schedules: dict[int, DaySchedule] = field(default_factory=dict)
    events: list[EventRecord] = field(default_factory=list)

    def trace(self, astro_id: str, day: int) -> DayTrace:
        """Trace of one astronaut on one day."""
        try:
            return self.traces[(astro_id, day)]
        except KeyError:
            raise DataError(f"no trace for astronaut {astro_id!r} day {day}") from None

    @property
    def days(self) -> list[int]:
        """Simulated days, sorted."""
        return sorted({day for _, day in self.traces})
