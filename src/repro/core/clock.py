"""Simulated clocks: mission time, Martian time, and drifting device clocks.

The ICAres-1 crew lived on *Martian* time — a sol is ~39.6 minutes longer
than an Earth day — and part of the study concerned time perception under
clock shifts.  The badge fleet additionally suffered ordinary crystal
drift, corrected opportunistically against a reference badge
(see :mod:`repro.radio.timesync`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.units import DAY

EARTH_DAY_S = DAY
#: Length of a Martian sol in SI seconds.
MARS_SOL_S = 88_775.244


class MissionClock:
    """Converts between absolute mission seconds and (day, in-day offset).

    Day indices are 1-based to match the paper ("on the fourth day ...").
    Absolute time 0.0 is local midnight at the start of day 1.
    """

    def __init__(self, day_length_s: float = EARTH_DAY_S):
        if day_length_s <= 0:
            raise ConfigError("day_length_s must be positive")
        self.day_length_s = float(day_length_s)

    def absolute(self, day: int, seconds_of_day: float = 0.0) -> float:
        """Absolute mission seconds for ``seconds_of_day`` on ``day``."""
        if day < 1:
            raise ConfigError(f"day index must be >= 1, got {day}")
        if not 0.0 <= seconds_of_day < self.day_length_s:
            raise ConfigError(f"seconds_of_day out of range: {seconds_of_day}")
        return (day - 1) * self.day_length_s + seconds_of_day

    def day_of(self, absolute_s: float) -> int:
        """1-based day index containing ``absolute_s``."""
        return int(absolute_s // self.day_length_s) + 1

    def seconds_of_day(self, absolute_s: float) -> float:
        """In-day offset of ``absolute_s``."""
        return absolute_s % self.day_length_s


class MartianClock:
    """Maps terrestrial mission seconds to the habitat's Martian local time.

    The habitat's artificial lighting followed Martian time of day, so
    "local midnight" slips ~39m35s later (in Earth terms) every sol.
    """

    def __init__(self, sol_length_s: float = MARS_SOL_S, epoch_offset_s: float = 0.0):
        if sol_length_s <= 0:
            raise ConfigError("sol_length_s must be positive")
        self.sol_length_s = float(sol_length_s)
        self.epoch_offset_s = float(epoch_offset_s)

    def sol_of(self, absolute_s: float) -> int:
        """1-based sol index for a terrestrial mission timestamp."""
        return int((absolute_s + self.epoch_offset_s) // self.sol_length_s) + 1

    def seconds_of_sol(self, absolute_s: float) -> float:
        """In-sol offset (0 .. sol_length) of a terrestrial timestamp."""
        return (absolute_s + self.epoch_offset_s) % self.sol_length_s


@dataclass
class ClockModel:
    """A device-local clock with constant frequency error and initial offset.

    ``drift_ppm`` is the crystal's frequency error in parts per million;
    typical cheap crystals are within +/- 20 ppm (~1.7 s/day).
    """

    offset_s: float = 0.0
    drift_ppm: float = 0.0

    def local_time(self, true_time_s: float) -> float:
        """Device-local timestamp for a true mission timestamp."""
        return self.offset_s + true_time_s * (1.0 + self.drift_ppm * 1e-6)

    def error_at(self, true_time_s: float) -> float:
        """Absolute clock error (local - true) at a true timestamp."""
        return self.local_time(true_time_s) - true_time_s

    def correct(self, reference_local: float, own_local: float) -> None:
        """Apply a one-shot offset correction from a reference exchange.

        ``reference_local`` is the reference badge's timestamp received in
        an opportunistic sync beacon; ``own_local`` is our local receive
        timestamp.  Propagation delay is negligible at habitat scale, so
        the post-correction offset error is just residual drift.
        """
        self.offset_s -= own_local - reference_local
