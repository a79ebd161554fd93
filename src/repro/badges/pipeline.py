"""Day-level sensing pipeline: ground truth -> badge observations.

For each instrumented day this module works out who wears which badge
(:mod:`repro.badges.assignment`), simulates wear state and badge
whereabouts, and synthesizes every sensor stream plus the pairwise radio
links.  The output is exactly what the offline analytics consume — the
analytics never see ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.badges.assignment import BadgeAssignment
from repro.badges.badge import Badge, badge_fleet
from repro.badges.battery import BatteryModel
from repro.badges.sdcard import SdCardAccountant
from repro.badges.sensors.accelerometer import AccelerometerModel
from repro.badges.sensors.environment import EnvironmentSensors
from repro.badges.sensors.imu import ImuModel
from repro.badges.sensors.microphone import MicrophoneModel, MicrophoneOutput, SpeechSources
from repro.badges.wear import WearDay, WearModel
from repro.core.config import MissionConfig
from repro.core.rng import (
    RngRegistry,
    badge_day_stream,
    fleet_stream,
    pairwise_day_stream,
)
from repro.core.units import DAY
from repro.crew.trace import MissionTruth
from repro.habitat.beacons import Beacon, place_beacons
from repro.obs import _state as _obs
from repro.obs import metrics as _metrics
from repro.obs import span
from repro.habitat.environment import Environment
from repro.habitat.floorplan import FloorPlan
from repro.radio.ble import BleScanModel
from repro.radio.infrared import IrModel
from repro.radio.subghz import SubGhzModel
from repro.radio.timesync import SyncEvent, TimeSyncSimulator


@dataclass
class BadgeDayObservations:
    """Everything one badge logged on one day."""

    badge_id: int
    day: int
    t0: float
    dt: float
    active: np.ndarray
    worn: np.ndarray
    ble_rssi: np.ndarray          # (frames, n_beacons); NaN = not heard
    accel_rms: np.ndarray
    gyro_rms: np.ndarray
    heading_rad: np.ndarray
    voice_db: np.ndarray
    dominant_pitch_hz: np.ndarray
    pitch_stability: np.ndarray
    sound_db: np.ndarray
    temperature_c: np.ndarray
    pressure_hpa: np.ndarray
    light_lux: np.ndarray
    clock_error_s: np.ndarray
    sync_events: list[SyncEvent]
    bytes_recorded: float
    #: Ground-truth badge room (simulator-only; used to *evaluate* the
    #: localization pipeline, never as its input).
    true_room: np.ndarray | None = None

    def drop_ble(self) -> None:
        """Free the (large) scan matrix once localization has consumed it."""
        self.ble_rssi = np.empty((0, 0), dtype=np.float32)


@dataclass
class PairwiseDay:
    """Badge-to-badge observations for one day (keys ``(i, j)``, i < j)."""

    day: int
    ir_contact: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    subghz_rssi: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


@dataclass
class SensingModels:
    """The bundle of device/channel models used for synthesis."""

    plan: FloorPlan
    beacons: list[Beacon]
    env: Environment = field(default_factory=Environment)
    ble: BleScanModel = field(default_factory=BleScanModel)
    subghz: SubGhzModel = field(default_factory=SubGhzModel)
    ir: IrModel = field(default_factory=IrModel)
    microphone: MicrophoneModel = field(default_factory=MicrophoneModel)
    accelerometer: AccelerometerModel = field(default_factory=AccelerometerModel)
    imu: ImuModel = field(default_factory=ImuModel)
    env_sensors: EnvironmentSensors = field(default_factory=EnvironmentSensors)
    battery: BatteryModel = field(default_factory=BatteryModel)

    @classmethod
    def default(cls, cfg: MissionConfig, plan: FloorPlan) -> "SensingModels":
        return cls(plan=plan, beacons=place_beacons(plan, cfg.n_beacons))


def sense_day(
    truth: MissionTruth,
    day: int,
    assignment: BadgeAssignment,
    models: SensingModels,
    fleet: dict[int, Badge],
    rngs: RngRegistry,
    sdcard: SdCardAccountant | None = None,
) -> tuple[dict[int, BadgeDayObservations], PairwiseDay]:
    """Synthesize all badge observations for one day.

    Badge clocks in ``fleet`` are mutated (drift accumulates, syncs
    apply), but the overnight dock sync at the start of every day zeroes
    each clock's error at ``t0``, so a day's output does not depend on
    which days (if any) were sensed before it.  Combined with the
    day-scoped RNG streams (:func:`repro.core.rng.badge_day_stream`)
    this makes ``sense_day`` safe to replay out of order or in parallel
    workers — everything that reaches a :class:`BadgeDaySummary` is
    bit-identical either way.
    """
    with span("sensing.day", day=day):
        return _sense_day(truth, day, assignment, models, fleet, rngs, sdcard)


def _sense_day(
    truth: MissionTruth,
    day: int,
    assignment: BadgeAssignment,
    models: SensingModels,
    fleet: dict[int, Badge],
    rngs: RngRegistry,
    sdcard: SdCardAccountant | None = None,
) -> tuple[dict[int, BadgeDayObservations], PairwiseDay]:
    cfg = assignment.cfg  # the run's config; the truth's may predate it
    plan = models.plan
    wear_model = WearModel(cfg, plan, battery=models.battery)
    timesync = TimeSyncSimulator(station_xy=wear_model.station_xy)
    n = cfg.frames_per_day
    t0 = cfg.daytime_start_s
    dt = cfg.frame_dt
    t_abs = (day - 1) * DAY + t0 + np.arange(n) * dt
    wall_matrix = plan.wall_matrix()
    noise_floors = np.array(
        [models.env.noise_floor_db(room.name) for room in plan.rooms]
    )
    sources = SpeechSources.from_truth(truth, day)

    mapping = assignment.actual(day)
    observations: dict[int, BadgeDayObservations] = {}
    wear_days: dict[int, WearDay] = {}

    # Phase 1 -- per badge: wear state and clock evolution.  Both are
    # inherently sequential per badge (data-dependent draw counts, a
    # mutating clock), and the wear draws must come first on each
    # badge-day stream to preserve the stream order contract
    # (wear -> ble -> accel -> imu -> mic -> env).
    live: list[tuple[int, str]] = []
    traces = []
    badge_rngs = []
    clock_results = []
    for badge_id, astro in sorted(mapping.items()):
        badge = fleet[badge_id]
        if not badge.alive_on(day):
            if _obs.enabled:
                _metrics.counter(
                    "sensing.badge_days_skipped", "badge-days skipped (dead badge)"
                ).inc(badge=badge_id)
            continue
        trace = truth.trace(astro, day)
        rng = rngs.get(badge_day_stream(badge_id, day))
        with span("sensing.badge_day", badge=badge_id, day=day, astro=astro):
            with span("sensing.wear", badge=badge_id, day=day):
                wear = wear_model.simulate_day(
                    trace, rng, diligence=truth.roster.profile(astro).wear_diligence
                )
            wear_days[badge_id] = wear

            with span("sensing.clock", badge=badge_id, day=day):
                # Clock: overnight dock syncs at day start, then drifts/syncs.
                badge.clock.correct(
                    reference_local=t0, own_local=badge.clock.local_time(t0)
                )
                clock_errors, sync_events = timesync.run_day(
                    badge.clock, wear.badge_xy, wear.active, t0, dt
                )
        live.append((badge_id, astro))
        traces.append(trace)
        badge_rngs.append(rng)
        clock_results.append((clock_errors, sync_events))

    # Phase 2 -- fleet-batched sensor synthesis: inputs are stacked once
    # and each model runs a single batched call over (badges, frames)
    # arrays.  Draws stay per badge on the streams gathered above, so
    # each badge's row is bit-identical to that badge run as a batch of one.
    if live:
        wear_list = [wear_days[badge_id] for badge_id, _ in live]
        fleet_xy = np.stack([w.badge_xy for w in wear_list])
        fleet_room = np.stack([w.badge_room for w in wear_list])
        fleet_active = np.stack([w.active for w in wear_list])
        fleet_worn = np.stack([w.worn for w in wear_list])
        fleet_walking = np.stack([t.walking for t in traces])
        fleet_activity = np.stack([t.activity for t in traces])
        with span("sensing.ble", day=day, badges=len(live)):
            ble_all = models.ble.scan_fleet(
                plan, models.beacons, fleet_xy, fleet_room, fleet_active, badge_rngs
            )
        with span("sensing.motion", day=day, badges=len(live)):
            accel_all = models.accelerometer.synthesize_fleet(
                fleet_walking, fleet_worn, fleet_active, fleet_activity, badge_rngs
            )
            gyro_all, heading_all = models.imu.synthesize_fleet(
                fleet_walking, fleet_worn, fleet_active, badge_rngs
            )
        with span("sensing.microphone", day=day, badges=len(live)):
            mic_all: MicrophoneOutput = models.microphone.synthesize_fleet(
                sources, fleet_xy, fleet_room, fleet_active,
                wall_matrix, noise_floors, badge_rngs,
            )
        with span("sensing.environment", day=day, badges=len(live)):
            temp_all, pressure_all, light_all = models.env_sensors.synthesize_fleet(
                models.env, plan, fleet_room, fleet_worn, fleet_active, t_abs, badge_rngs
            )

    # Phase 3 -- per badge: SD-card accounting, metrics, assembly.
    for b, (badge_id, astro) in enumerate(live):
        wear = wear_days[badge_id]
        clock_errors, sync_events = clock_results[b]
        bytes_recorded = 0.0
        if sdcard is not None:
            bytes_recorded = sdcard.record_day(badge_id, day, float(wear.active.sum()) * dt)
        if _obs.enabled:
            _metrics.counter(
                "sensing.badge_days", "badge-days synthesized"
            ).inc()
            _metrics.counter(
                "sensing.bytes_recorded", "SD-card bytes recorded"
            ).inc(bytes_recorded, badge=badge_id)
            _metrics.histogram(
                "sensing.active_fraction", "fraction of frames recording"
            ).observe(float(wear.active.mean()))

        observations[badge_id] = BadgeDayObservations(
            badge_id=badge_id, day=day, t0=t0, dt=dt,
            active=wear.active, worn=wear.worn,
            ble_rssi=ble_all[b],
            accel_rms=accel_all[b], gyro_rms=gyro_all[b], heading_rad=heading_all[b],
            voice_db=mic_all.voice_db[b], dominant_pitch_hz=mic_all.dominant_pitch_hz[b],
            pitch_stability=mic_all.pitch_stability[b], sound_db=mic_all.sound_db[b],
            temperature_c=temp_all[b], pressure_hpa=pressure_all[b], light_lux=light_all[b],
            clock_error_s=clock_errors, sync_events=sync_events,
            bytes_recorded=bytes_recorded,
            true_room=wear.badge_room,
        )

    # Reference badge: permanently charged and recording at the station.
    # It runs as a fleet batch of one, drawing mic -> env -> ble -> accel.
    ref_id = assignment.reference_id
    ref_rngs = (rngs.get(badge_day_stream(ref_id, day)),)
    ref_active = np.ones((1, n), dtype=bool)
    ref_worn = np.zeros((1, n), dtype=bool)
    ref_xy = np.tile(np.float32(wear_model.station_xy), (1, n, 1))
    ref_room = np.full((1, n), wear_model.station_room, dtype=np.int8)
    ref_mic = models.microphone.synthesize_fleet(
        sources, ref_xy, ref_room, ref_active, wall_matrix, noise_floors, ref_rngs
    )
    ref_temp, ref_pressure, ref_light = models.env_sensors.synthesize_fleet(
        models.env, plan, ref_room, ref_worn, ref_active, t_abs, ref_rngs
    )
    ref_ble = models.ble.scan_fleet(
        plan, models.beacons, ref_xy, ref_room, ref_active, ref_rngs
    )
    ref_accel = models.accelerometer.synthesize_fleet(
        np.zeros((1, n), dtype=bool), ref_worn, ref_active,
        np.zeros((1, n), dtype=np.int8), ref_rngs,
    )
    if sdcard is not None:
        ref_bytes = sdcard.record_day(ref_id, day, float(n) * dt)
    else:
        ref_bytes = 0.0
    observations[ref_id] = BadgeDayObservations(
        badge_id=ref_id, day=day, t0=t0, dt=dt,
        active=ref_active[0], worn=ref_worn[0],
        ble_rssi=ref_ble[0],
        accel_rms=ref_accel[0],
        gyro_rms=np.full(n, 0.01, dtype=np.float32),
        heading_rad=np.zeros(n, dtype=np.float32),
        voice_db=ref_mic.voice_db[0], dominant_pitch_hz=ref_mic.dominant_pitch_hz[0],
        pitch_stability=ref_mic.pitch_stability[0], sound_db=ref_mic.sound_db[0],
        temperature_c=ref_temp[0], pressure_hpa=ref_pressure[0], light_lux=ref_light[0],
        clock_error_s=np.zeros(n), sync_events=[],
        bytes_recorded=ref_bytes,
    )

    with span("sensing.pairwise", day=day):
        pairwise = _pairwise_day(truth, day, mapping, wear_days, models, rngs)
    return observations, pairwise


def _pairwise_day(
    truth: MissionTruth,
    day: int,
    mapping: dict[int, str],
    wear_days: dict[int, WearDay],
    models: SensingModels,
    rngs: RngRegistry,
) -> PairwiseDay:
    """Synthesize IR and sub-GHz badge-to-badge observations."""
    rng = rngs.get(pairwise_day_stream(day))
    badge_xy = {b: w.badge_xy.astype(np.float64) for b, w in wear_days.items()}
    badge_room = {b: w.badge_room for b, w in wear_days.items()}
    active = {b: w.active for b, w in wear_days.items()}
    worn = {b: w.worn for b, w in wear_days.items()}
    walking = {
        b: truth.trace(mapping[b], day).walking & wear_days[b].worn
        for b in wear_days
    }
    pairwise = PairwiseDay(day=day)
    if len(wear_days) >= 2:
        pairwise.subghz_rssi = models.subghz.pairwise(
            models.plan, badge_xy, badge_room, active, rng
        )
        pairwise.ir_contact = models.ir.pairwise(badge_xy, badge_room, worn, walking, rng)
    return pairwise


def make_fleet(assignment: BadgeAssignment, rngs: RngRegistry) -> dict[int, Badge]:
    """Create the mission's badge fleet, applying scripted failures.

    F's own badge fails on the morning of the reuse day, which is why F
    picked up C's.
    """
    fleet = badge_fleet(assignment.roster.size, rngs.get(fleet_stream()))
    cfg = assignment.cfg
    if cfg.events is not None and cfg.event_active("badge_reuse_day") and "F" in assignment.roster.ids:
        f_badge = assignment.roster.index("F")
        fleet[f_badge].failed_on_day = cfg.events.badge_reuse_day
    return fleet
