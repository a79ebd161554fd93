"""Seeded randomized fault campaigns.

A :class:`FaultCampaign` turns per-day fault *rates* into a concrete
:class:`~repro.faults.plan.FaultPlan` with a single NumPy generator, so
the same campaign (including seed) always produces the same plan — the
chaos-testing analogue of the mission's master-seed reproducibility.
Counts are Poisson in the horizon, times uniform, and window durations
exponential, following the CTMC-style reliability modeling of habitat
monitoring systems (exponentially distributed failure/repair times).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError
from repro.core.units import DAY, HOUR
from repro.faults.plan import FaultEvent, FaultPlan


@dataclass(frozen=True)
class FaultCampaign:
    """Generator parameters for a randomized fault campaign.

    Rates are events per *day* per category (not per node), chosen so a
    14-day mission sees a handful of each fault class by default.
    """

    seed: int = 0
    #: Campaign horizon, seconds (mission length).
    horizon_s: float = 14 * DAY
    #: Crashable bus nodes (replicas, relays — not the Earth endpoints).
    nodes: tuple[str, ...] = ()
    #: Links eligible for flaps, as ``(src, dst)`` pairs.
    links: tuple[tuple[str, str], ...] = ()
    #: Deployed beacon count (outages pick random beacons).
    n_beacons: int = 0
    #: Badge ids eligible for battery / SD-card faults.
    badge_ids: tuple[int, ...] = ()

    crashes_per_day: float = 0.5
    mean_downtime_s: float = 30 * 60.0
    flaps_per_day: float = 1.0
    mean_flap_s: float = 180.0
    lossy_windows_per_day: float = 0.5
    lossy_prob: float = 0.3
    mean_lossy_s: float = 900.0
    blackouts_per_day: float = 0.25
    mean_blackout_s: float = 2 * HOUR
    beacon_outages_per_day: float = 0.5
    mean_beacon_outage_s: float = 6 * HOUR
    #: Whole-mission counts (not rates) for the rarer hardware faults.
    battery_depletions: int = 1
    sdcard_exhaustions: int = 0
    #: Capacity override applied by an SD-card exhaustion, bytes.
    sdcard_cap_bytes: float = 4e9
    #: Whole-mission count of executor-level worker crashes (the pool
    #: worker computing the struck day is SIGKILLed; the mission must
    #: still finish, serially).  Drawn after every other fault class, so
    #: campaigns with ``worker_crashes=0`` reproduce their historical
    #: plans exactly.
    worker_crashes: int = 0
    #: Whole-mission counts of data-corruption faults striking assembled
    #: badge-days (exercising the ``repro.quality`` ingest gate).  Drawn
    #: after every class above — including ``worker_crashes`` — so
    #: campaigns without them reproduce their historical plans exactly.
    bitrot_days: int = 0
    truncated_days: int = 0
    duplicated_days: int = 0
    stuck_days: int = 0
    clock_desyncs: int = 0

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        if not 0.0 <= self.lossy_prob < 1.0:
            raise ConfigError("lossy_prob must be in [0, 1)")
        for name in ("crashes_per_day", "flaps_per_day", "lossy_windows_per_day",
                     "blackouts_per_day", "beacon_outages_per_day"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("mean_downtime_s", "mean_flap_s", "mean_lossy_s",
                     "mean_blackout_s", "mean_beacon_outage_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.battery_depletions < 0 or self.sdcard_exhaustions < 0 \
                or self.worker_crashes < 0:
            raise ConfigError("fault counts must be non-negative")
        for name in ("bitrot_days", "truncated_days", "duplicated_days",
                     "stuck_days", "clock_desyncs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    @property
    def days(self) -> float:
        return self.horizon_s / DAY

    def generate(self) -> FaultPlan:
        """Draw a concrete fault plan (deterministic in the seed)."""
        rng = np.random.default_rng(self.seed)
        events: list[FaultEvent] = []

        def windows(rate_per_day: float, mean_s: float):
            count = int(rng.poisson(rate_per_day * self.days))
            starts = np.sort(rng.uniform(0.0, self.horizon_s, size=count))
            durations = rng.exponential(mean_s, size=count) + 1.0
            return zip(starts, durations)

        if self.nodes:
            for start, duration in windows(self.crashes_per_day, self.mean_downtime_s):
                node = self.nodes[int(rng.integers(len(self.nodes)))]
                events.append(FaultEvent(
                    time_s=float(start), action="crash", target=node,
                    duration_s=float(duration),
                ))
        if self.links:
            for start, duration in windows(self.flaps_per_day, self.mean_flap_s):
                src, dst = self.links[int(rng.integers(len(self.links)))]
                events.append(FaultEvent(
                    time_s=float(start), action="link-down",
                    target=f"{src}<->{dst}", duration_s=float(duration),
                ))
        for start, duration in windows(self.lossy_windows_per_day, self.mean_lossy_s):
            events.append(FaultEvent(
                time_s=float(start), action="lossy",
                duration_s=float(duration), value=self.lossy_prob,
            ))
        for start, duration in windows(self.blackouts_per_day, self.mean_blackout_s):
            events.append(FaultEvent(
                time_s=float(start), action="blackout", duration_s=float(duration),
            ))
        if self.n_beacons > 0:
            for start, duration in windows(self.beacon_outages_per_day,
                                           self.mean_beacon_outage_s):
                beacon = int(rng.integers(self.n_beacons))
                events.append(FaultEvent(
                    time_s=float(start), action="beacon-outage",
                    target=str(beacon), duration_s=float(duration),
                ))
        if self.badge_ids:
            for _ in range(self.battery_depletions):
                badge = self.badge_ids[int(rng.integers(len(self.badge_ids)))]
                events.append(FaultEvent(
                    time_s=float(rng.uniform(0.0, self.horizon_s)),
                    action="badge-battery", target=str(badge),
                ))
            for _ in range(self.sdcard_exhaustions):
                badge = self.badge_ids[int(rng.integers(len(self.badge_ids)))]
                events.append(FaultEvent(
                    time_s=0.0, action="sdcard-cap", target=str(badge),
                    value=self.sdcard_cap_bytes,
                ))
        # Executor-level crashes are drawn after every bus/sensing class:
        # adding them to a campaign never perturbs the draw sequence of
        # the classes above, so existing seeded plans stay byte-stable.
        for _ in range(self.worker_crashes):
            events.append(FaultEvent(
                time_s=float(rng.uniform(0.0, self.horizon_s)),
                action="worker-crash",
            ))
        # Data-corruption faults are drawn last of all, for the same
        # byte-stability guarantee.
        if self.badge_ids:
            def data_event(action: str, lo: float, hi: float) -> FaultEvent:
                badge = self.badge_ids[int(rng.integers(len(self.badge_ids)))]
                return FaultEvent(
                    time_s=float(rng.uniform(0.0, self.horizon_s)),
                    action=action, target=str(badge),
                    value=float(rng.uniform(lo, hi)),
                )

            for _ in range(self.bitrot_days):
                events.append(data_event("data-bitrot", 0.02, 0.25))
            for _ in range(self.truncated_days):
                events.append(data_event("data-truncate", 0.2, 0.9))
            for _ in range(self.duplicated_days):
                events.append(data_event("data-duplicate", 0.05, 0.3))
            for _ in range(self.stuck_days):
                events.append(data_event("data-stuck", 0.1, 0.5))
            for _ in range(self.clock_desyncs):
                event = data_event("data-clock-skew", 300.0, 4 * HOUR)
                if rng.uniform() < 0.5:  # drift runs both ways
                    event = FaultEvent(
                        time_s=event.time_s, action=event.action,
                        target=event.target, value=-event.value,
                    )
                events.append(event)
        return FaultPlan.build(*events)

    @classmethod
    def corruption(cls, days: int = 14, seed: int = 0,
                   n_badges: int = 7) -> "FaultCampaign":
        """A data-corruption-only campaign (exercises the quality gate).

        No bus/sensing/executor faults: every event damages assembled
        badge-day data, so the mission content itself is clean and any
        analytics deviation is attributable to the gate's repairs.
        """
        return cls(
            seed=seed,
            horizon_s=days * DAY,
            badge_ids=tuple(range(n_badges)),
            crashes_per_day=0.0, flaps_per_day=0.0,
            lossy_windows_per_day=0.0, blackouts_per_day=0.0,
            beacon_outages_per_day=0.0,
            battery_depletions=0, sdcard_exhaustions=0,
            bitrot_days=max(1, days // 4),
            truncated_days=max(1, days // 5),
            duplicated_days=max(1, days // 7),
            stuck_days=max(1, days // 5),
            clock_desyncs=max(1, days // 7),
        )

    @classmethod
    def coverage_reference(cls, days: int = 14, seed: int = 0,
                           n_beacons: int = 27,
                           crew_size: int = 3) -> "FaultCampaign":
        """The sensing-fault reference campaign for the coverage model.

        Only the fault classes that degrade *data coverage* are active —
        data corruption, battery depletion, SD-card caps, and beacon
        outages; the bus classes are silenced so the quality gate is the
        sole judge of the damage.  ``badge_ids`` are the primary badges
        of a ``crew_size`` mission, so every drawn event strikes a
        badge-day the mission actually assembles (the coverage model's
        hit probability stays exact instead of estimated).
        """
        return cls(
            seed=seed,
            horizon_s=days * DAY,
            n_beacons=n_beacons,
            badge_ids=tuple(range(crew_size)),
            crashes_per_day=0.0, flaps_per_day=0.0,
            lossy_windows_per_day=0.0, blackouts_per_day=0.0,
            beacon_outages_per_day=0.5,
            battery_depletions=1, sdcard_exhaustions=1,
            bitrot_days=max(1, days // 4),
            truncated_days=max(1, days // 5),
            duplicated_days=max(1, days // 7),
            stuck_days=max(1, days // 5),
            clock_desyncs=max(1, days // 7),
        )

    @classmethod
    def reference(cls, days: int = 14, seed: int = 0,
                  n_beacons: int = 27, n_badges: int = 7) -> "FaultCampaign":
        """The reference campaign used by benchmarks and the CLI.

        Covers every fault class at moderate rates over ``days`` against
        the standard support-stack node set (replica pair + relay).
        """
        return cls(
            seed=seed,
            horizon_s=days * DAY,
            nodes=("svc-a", "svc-b", "relay"),
            links=(("relay", "svc-a"), ("relay", "svc-b"), ("svc-a", "svc-b")),
            n_beacons=n_beacons,
            badge_ids=tuple(range(n_badges)),
            battery_depletions=1,
            sdcard_exhaustions=1,
        )
