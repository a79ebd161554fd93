"""Scripted fault plans.

A :class:`FaultPlan` is a deterministic, time-ordered script of fault
events covering the whole habitat stack: bus-level faults (node crash /
restart, link flaps, lossy-channel windows, Earth-link blackouts) that
the :class:`~repro.faults.injector.FaultInjector` replays onto the
discrete-event simulator, and sensing-level faults (beacon outages,
badge battery depletion, SD-card exhaustion) that degrade the day-based
sensing pipeline.  Plans are immutable and hashable, so a plan can live
inside a frozen :class:`~repro.core.config.MissionConfig` and the same
config (including seed) always reproduces the same faulted mission.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.units import DAY

#: Faults the injector replays onto the bus / Earth link.
BUS_ACTIONS = frozenset({
    "crash",          # target: node name; duration_s -> auto-recover
    "recover",        # target: node name (explicit restart)
    "link-down",      # target: "a->b" directed or "a<->b"; duration_s -> heal
    "link-up",        # target: as above (explicit heal)
    "lossy",          # value: loss probability; duration_s -> revert window
    "blackout",       # Earth link dark; duration_s -> restore
})

#: Faults applied to the day-based sensing pipeline.
SENSING_ACTIONS = frozenset({
    "beacon-outage",  # target: "3" or "3,7,12"; duration_s -> back up
    "badge-battery",  # target: badge id; dead from time_s to end of day
    "sdcard-cap",     # target: badge id; value: capacity bytes override
})

#: Faults applied to the execution engine itself (chaos-testing the
#: supervisor): they never change mission *content*, only how the run
#: has to fight to produce it.
EXEC_ACTIONS = frozenset({
    "worker-crash",   # the pool worker computing time_s's day is SIGKILLed
})

#: Faults that corrupt already-recorded badge-day data (chaos-testing
#: the ``repro.quality`` ingest gate).  Each strikes the badge-day of
#: ``target`` containing ``time_s``; the corruption is applied to the
#: assembled dataset, after sensing, the way real damage appears at
#: analysis time.
DATA_ACTIONS = frozenset({
    "data-bitrot",      # value: fraction of frames struck with garbage
    "data-truncate",    # value: fraction of the day that survives
    "data-duplicate",   # value: fraction of the day duplicated + reordered
    "data-stuck",       # value: fraction of the day a sensor reads constant
    "data-clock-skew",  # value: seconds the day's t0 drifts (signed)
})

ACTIONS = BUS_ACTIONS | SENSING_ACTIONS | EXEC_ACTIONS | DATA_ACTIONS


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    Attributes:
        time_s: absolute mission time of injection (seconds; day ``d``
            starts at ``(d - 1) * DAY``).
        action: one of :data:`ACTIONS`.
        target: action-dependent — node name, ``"a->b"`` / ``"a<->b"``
            link, comma-separated beacon ids, or a badge id.
        duration_s: for window actions, seconds until auto-revert
            (recover / heal / restore / loss reset); ``None`` means the
            fault persists.
        value: numeric parameter (loss probability for ``lossy``,
            capacity bytes for ``sdcard-cap``).
    """

    time_s: float
    action: str
    target: str = ""
    duration_s: float | None = None
    value: float = 0.0

    def validate(self) -> None:
        if self.time_s < 0:
            raise ConfigError("fault time_s must be non-negative")
        if self.action not in ACTIONS:
            raise ConfigError(f"unknown fault action {self.action!r}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigError("fault duration_s must be positive")
        if self.action == "lossy" and not 0.0 <= self.value < 1.0:
            raise ConfigError("lossy value must be a loss probability in [0, 1)")
        if self.action == "sdcard-cap" and self.value <= 0:
            raise ConfigError("sdcard-cap value must be a positive byte count")
        if self.action in ("crash", "recover", "link-down", "link-up",
                           "beacon-outage", "badge-battery", "sdcard-cap") \
                and not self.target:
            raise ConfigError(f"fault action {self.action!r} needs a target")
        if self.action in DATA_ACTIONS:
            if not self.target:
                raise ConfigError(f"fault action {self.action!r} needs a badge target")
            if self.action in ("data-bitrot", "data-duplicate", "data-stuck") \
                    and not 0.0 < self.value <= 1.0:
                raise ConfigError(f"{self.action} value must be a fraction in (0, 1]")
            if self.action == "data-truncate" and not 0.0 <= self.value < 1.0:
                raise ConfigError("data-truncate value must be a surviving "
                                  "fraction in [0, 1)")
            if self.action == "data-clock-skew" and self.value == 0.0:
                raise ConfigError("data-clock-skew value must be a non-zero "
                                  "seconds offset")

    @property
    def end_s(self) -> float | None:
        """Absolute end of the fault window (``None`` if persistent)."""
        if self.duration_s is None:
            return None
        return self.time_s + self.duration_s

    def link_endpoints(self) -> tuple[str, str, bool]:
        """Parse a link target into ``(src, dst, bidirectional)``."""
        if "<->" in self.target:
            src, dst = self.target.split("<->", 1)
            return src.strip(), dst.strip(), True
        if "->" in self.target:
            src, dst = self.target.split("->", 1)
            return src.strip(), dst.strip(), False
        raise ConfigError(f"link target must be 'a->b' or 'a<->b', got {self.target!r}")

    def beacon_ids(self) -> tuple[int, ...]:
        """Parse a beacon-outage target into beacon indices."""
        try:
            return tuple(int(part) for part in self.target.split(",") if part.strip() != "")
        except ValueError:
            raise ConfigError(f"beacon target must be comma-separated ints, got {self.target!r}") from None

    def badge_id(self) -> int:
        try:
            return int(self.target)
        except ValueError:
            raise ConfigError(f"badge target must be an int, got {self.target!r}") from None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted script of :class:`FaultEvent`\\ s."""

    events: tuple[FaultEvent, ...] = ()

    @classmethod
    def build(cls, *events: FaultEvent) -> "FaultPlan":
        """Create a plan from events in any order (sorted, validated)."""
        plan = cls(events=tuple(sorted(
            events, key=lambda e: (e.time_s, e.action, e.target)
        )))
        plan.validate()
        return plan

    def validate(self) -> None:
        for event in self.events:
            event.validate()

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """A new plan combining both scripts."""
        return FaultPlan.build(*self.events, *other.events)

    def bus_events(self) -> list[FaultEvent]:
        """Events the simulator-side injector replays, in time order."""
        return [e for e in self.events if e.action in BUS_ACTIONS]

    def sensing_events(self) -> list[FaultEvent]:
        return [e for e in self.events if e.action in SENSING_ACTIONS]

    def exec_events(self) -> list[FaultEvent]:
        """Events aimed at the execution engine (supervisor chaos)."""
        return [e for e in self.events if e.action in EXEC_ACTIONS]

    def data_events(self) -> list[FaultEvent]:
        """Events that corrupt assembled badge-day data, in time order."""
        return [e for e in self.events if e.action in DATA_ACTIONS]

    def data_events_by_badge_day(self) -> dict[tuple[int, int], list[FaultEvent]]:
        """Data-corruption events grouped by the badge-day they strike."""
        out: dict[tuple[int, int], list[FaultEvent]] = {}
        for event in self.data_events():
            key = (event.badge_id(), int(event.time_s // DAY) + 1)
            out.setdefault(key, []).append(event)
        return out

    def worker_crash_days(self) -> frozenset[int]:
        """Mission days whose pool worker an injected crash should kill.

        The worker that picks up such a day dies without answering, so
        that day is lost; the mission driver then computes it and the
        days not yet handed out serially.
        """
        return frozenset(
            int(e.time_s // DAY) + 1
            for e in self.events if e.action == "worker-crash"
        )

    def is_empty(self) -> bool:
        return not self.events

    # -- sensing-fault queries (pure functions of the plan) ---------------

    def dead_beacons_on_day(self, day: int, daytime_start_s: float,
                            daytime_s: float) -> frozenset[int]:
        """Beacons with an outage overlapping ``day``'s daytime window.

        Day granularity is deliberate: the localizer masks whole RSSI
        columns for the day, matching how a dead beacon would be treated
        in post-hoc analysis.
        """
        day_start = (day - 1) * DAY + daytime_start_s
        day_end = day_start + daytime_s
        dead: set[int] = set()
        for event in self.events:
            if event.action != "beacon-outage":
                continue
            end = event.end_s if event.end_s is not None else float("inf")
            if event.time_s < day_end and end > day_start:
                dead.update(event.beacon_ids())
        return frozenset(dead)

    def battery_cut_frame(self, badge_id: int, day: int, daytime_start_s: float,
                          n_frames: int, dt: float) -> int | None:
        """First dead frame of ``badge_id`` on ``day``, or ``None``.

        A ``badge-battery`` event kills recording from its injection
        time through the end of that day (overnight charging restores
        the badge next morning).
        """
        day_start = (day - 1) * DAY + daytime_start_s
        cut: int | None = None
        for event in self.events:
            if event.action != "badge-battery" or event.badge_id() != badge_id:
                continue
            if int(event.time_s // DAY) + 1 != day:
                continue
            frame = min(max(0, int((event.time_s - day_start) / dt)), n_frames)
            cut = frame if cut is None else min(cut, frame)
        return cut if cut is not None and cut < n_frames else None

    def sdcard_caps(self) -> dict[int, float]:
        """Per-badge SD-card capacity overrides declared by the plan."""
        caps: dict[int, float] = {}
        for event in self.events:
            if event.action == "sdcard-cap":
                caps[event.badge_id()] = event.value
        return caps
