"""Mission configuration.

A :class:`MissionConfig` fully determines a simulated mission: the same
config (including seed) always reproduces the same traces, sensor data,
figures, and tables.  Defaults reproduce the ICAres-1 mission as
described in the paper; tests shrink ``days`` for speed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.core.errors import ConfigError
from repro.core.units import DAY, HOUR, parse_hhmm

if TYPE_CHECKING:  # imported lazily to keep repro.core free of repro.faults
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class ScriptedEventsConfig:
    """The mission's scripted, atypical events (paper Section III-D).

    Any event whose day falls outside the simulated mission length is
    silently skipped, so short test missions remain valid configs.
    """

    #: Day on which astronaut C leaves the habitat "virtually dead".
    death_day: int = 4
    #: In-day time of C's death.
    death_time: str = "15:00"
    #: Start of the unplanned consolation meeting in the kitchen.
    consolation_time: str = "15:20"
    #: Duration of the consolation meeting, seconds.
    consolation_duration_s: float = 35 * 60.0
    #: Day of the extreme food-shortage announcement (<500 kcal rations).
    famine_day: int = 11
    #: Day on which delayed mission-control instructions contradicted the
    #: crew's action and a reprimand was issued.
    reprimand_day: int = 12
    #: Day on which impaired astronaut A accidentally swaps badges with B.
    badge_swap_day: int = 7
    #: First day on which F wears the badge that had belonged to C.
    badge_reuse_day: int = 9

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent values."""
        for name in ("death_day", "famine_day", "reprimand_day", "badge_swap_day", "badge_reuse_day"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        parse_hhmm(self.death_time)
        parse_hhmm(self.consolation_time)
        if self.consolation_duration_s <= 0:
            raise ConfigError("consolation_duration_s must be positive")
        if parse_hhmm(self.consolation_time) < parse_hhmm(self.death_time):
            raise ConfigError("consolation meeting cannot precede the death event")
        if self.badge_reuse_day <= self.death_day:
            raise ConfigError("badge_reuse_day must come after death_day")


@dataclass(frozen=True)
class ExecutionConfig:
    """How a mission run *executes* — never what it computes.

    Execution knobs (worker count, cache location) are deliberately kept
    out of :class:`MissionConfig`: the mission config fully determines
    the mission's *content*, and the execution config only changes how
    fast that content is produced.  The parallel executor is bit-exact
    with the serial one (see ``repro.exec``), so no execution field may
    ever enter a cache key.

    Attributes:
        n_workers: number of day-pool worker processes for badge-day
            work; ``"serial"`` (or ``1``) runs everything in-process,
            the historical behaviour and the fallback whenever parallel
            execution is not applicable (sensing-fault plans,
            unpicklable overrides) or a worker dies or hangs (its day
            and the days not yet handed out then run serially).
            ``"auto"`` picks for the machine: serial when
            ``os.cpu_count() <= 2``, else one worker per core.
        cache_dir: directory of the content-addressed mission store
            (ground truth and completed days), or ``None`` for none.  A
            run with a store reads the days it already holds and stores
            each new day as it finishes, so rerunning a killed run
            resumes it, bit-identical to an uninterrupted one.
        day_deadline_s: supervisor deadline for one day's worth of work
            in a pool worker; a day that runs longer is treated as hung,
            its worker is killed, and that day and the days not yet
            handed out run serially once the other workers' days land.
            A day's clock starts when it is handed to an idle worker, so
            waiting for a worker never counts, but the first wave's
            clock includes worker start-up (unpickling the mission
            context).  ``None`` disables hung-worker detection.
    """

    n_workers: int | str = "serial"
    cache_dir: Optional[str] = None
    day_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.n_workers, str):
            if self.n_workers not in ("serial", "auto"):
                raise ConfigError(
                    "n_workers must be a positive int, 'serial', or 'auto', "
                    f"got {self.n_workers!r}"
                )
        elif not isinstance(self.n_workers, int) or self.n_workers < 1:
            raise ConfigError(
                "n_workers must be a positive int, 'serial', or 'auto', "
                f"got {self.n_workers!r}"
            )
        if self.cache_dir is not None and not str(self.cache_dir):
            raise ConfigError("cache_dir must be a non-empty path or None")
        if self.day_deadline_s is not None and self.day_deadline_s <= 0:
            raise ConfigError("day_deadline_s must be positive or None")

    #: ``"auto"`` only: pending missions smaller than this many
    #: frame-badge units run serially even on a many-core box — pool
    #: spin-up (fork + context pickling) costs more than the parallel
    #: win on a mission this small.
    AUTO_POOL_MIN_UNITS: ClassVar[int] = 1_000_000

    @property
    def worker_count(self) -> int:
        """Resolved pool size (``"serial"`` counts as one worker).

        ``"auto"`` sizes the pool to the machine: serial on boxes with
        two or fewer cores (a pool would just add pickling overhead
        there), one worker per core otherwise.  The day pool's supervisor
        additionally keeps ``"auto"`` serial for small missions — see
        :meth:`auto_serial`.
        """
        if self.n_workers == "serial":
            return 1
        if self.n_workers == "auto":
            cores = os.cpu_count() or 1
            return 1 if cores <= 2 else cores
        return int(self.n_workers)

    def auto_serial(self, work_units: float) -> bool:
        """Whether ``"auto"`` keeps this much pending work serial.

        ``work_units`` is the remaining frame-badge work of the mission
        (frames per day x badges x days still to compute).  Explicit
        integer pool sizes and ``"serial"`` are never second-guessed —
        only ``"auto"`` weighs the mission against the pool's spin-up
        cost.
        """
        return self.n_workers == "auto" and work_units < self.AUTO_POOL_MIN_UNITS

    @property
    def parallel(self) -> bool:
        """Whether this config requests a process pool."""
        return self.worker_count > 1

    @property
    def cache_active(self) -> bool:
        """Whether a cache should actually be consulted."""
        return self.cache_dir is not None


@dataclass(frozen=True)
class MissionConfig:
    """Top-level knobs of a simulated ICAres-1-style mission."""

    #: Master RNG seed; all stochastic components derive from it.
    seed: int = 7
    #: Mission length in days (paper: 14, Oct 8 - Oct 22).
    days: int = 14
    #: First day on which badges are worn (paper: day 2).
    badges_from_day: int = 2
    #: Local start of daytime.
    daytime_start: str = "07:00"
    #: Daytime length (paper: 14 h of regulated daytime).
    daytime_hours: float = 14.0
    #: Ground-truth / sensor sampling period in seconds (paper analyses
    #: use 1-second dominant-position frames).
    frame_dt: float = 1.0
    #: Number of deployed BLE beacons (paper: 27).
    n_beacons: int = 27
    #: Crew size (paper: 6, three women and three men).
    crew_size: int = 6
    #: Wear compliance (fraction of daytime the badge is worn) at mission
    #: start and end; the paper reports a decay from ~80% to ~50%.
    wear_compliance_start: float = 0.80
    wear_compliance_end: float = 0.50
    #: One-way Earth-Mars communication delay applied to the mission
    #: control link (paper: 20 minutes).
    earth_link_delay_s: float = 20 * 60.0
    #: Scripted events; ``None`` disables all of them.
    events: Optional[ScriptedEventsConfig] = field(default_factory=ScriptedEventsConfig)
    #: Fault-injection plan; ``None`` runs the mission fault-free.
    fault_plan: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        self.validate()

    # -- derived quantities -------------------------------------------

    @property
    def daytime_start_s(self) -> float:
        """Daytime start as seconds of day."""
        return parse_hhmm(self.daytime_start)

    @property
    def daytime_s(self) -> float:
        """Daytime length in seconds."""
        return self.daytime_hours * HOUR

    @property
    def frames_per_day(self) -> int:
        """Number of sample frames in one day's daytime."""
        return int(round(self.daytime_s / self.frame_dt))

    @property
    def instrumented_days(self) -> list[int]:
        """Days on which badge data exists (paper: days 2..14, i.e. 13 days)."""
        return list(range(self.badges_from_day, self.days + 1))

    def event_active(self, day_attr: str) -> bool:
        """Whether the scripted event ``day_attr`` occurs within the mission."""
        if self.events is None:
            return False
        return 1 <= getattr(self.events, day_attr) <= self.days

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent values."""
        if self.days < 1:
            raise ConfigError("days must be >= 1")
        if not 1 <= self.badges_from_day <= self.days:
            raise ConfigError("badges_from_day must lie within the mission")
        if not 0 < self.daytime_hours <= 24:
            raise ConfigError("daytime_hours must be in (0, 24]")
        if self.frame_dt <= 0:
            raise ConfigError("frame_dt must be positive")
        if abs(self.daytime_s / self.frame_dt - round(self.daytime_s / self.frame_dt)) > 1e-9:
            raise ConfigError("daytime must be an integer number of frames")
        if self.n_beacons < 1:
            raise ConfigError("n_beacons must be >= 1")
        if self.crew_size < 2:
            raise ConfigError("crew_size must be >= 2")
        if not 0.0 <= self.wear_compliance_end <= self.wear_compliance_start <= 1.0:
            raise ConfigError("wear compliance must satisfy 0 <= end <= start <= 1")
        if self.earth_link_delay_s < 0:
            raise ConfigError("earth_link_delay_s must be >= 0")
        parse_hhmm(self.daytime_start)
        if self.daytime_start_s + self.daytime_s > 24 * HOUR:
            raise ConfigError("daytime must end within the same day")
        if self.events is not None:
            self.events.validate()
        if self.fault_plan is not None:
            for event in self.fault_plan.events:
                event.validate()
                if event.time_s >= self.days * DAY:
                    raise ConfigError(
                        f"fault event at t={event.time_s:.0f}s lies beyond the "
                        f"{self.days}-day mission"
                    )

    def with_days(self, days: int) -> "MissionConfig":
        """A copy of this config with a different mission length."""
        return replace(self, days=days)
