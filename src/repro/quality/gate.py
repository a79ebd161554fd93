"""The validating ingest gate for sensing datasets.

:func:`validate_sensing` inspects every badge-day of a
:class:`~repro.analytics.dataset.MissionSensing` for the damage a real
field deployment produces — shape and dtype drift, NaN/Inf runs, frame
duplication and truncation, impossible sensor values, stuck sensors,
clock skew beyond what the time-sync corrects, and badge-days that do
not belong to the mission at all — and renders a per-badge-day verdict:

* ``ok`` — served untouched (the *same* array objects, so a clean
  dataset is bit-identical through the gate);
* ``repaired`` — served after explicit, counted repairs (corrupt frames
  masked not-``active``, surplus frames dropped, short days padded with
  inactive frames, out-of-range values cleared or clamped, clocks
  reset);
* ``quarantined`` — excluded from the gated dataset, never silently
  served (empty or foreign badge-days, broken clocks, or days whose
  unusable fraction exceeds the policy threshold).

:func:`gate_sensing` applies the verdicts and returns the gated dataset
with the :class:`~repro.quality.report.DataQualityReport` attached as
``sensing.quality``, which is where the analytics layer reads its
coverage fractions from.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from repro.analytics.dataset import BadgeDaySummary, MissionSensing
from repro.badges.pipeline import PairwiseDay
from repro.core.errors import DataError
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics
from repro.obs import span
from repro.quality.report import (
    VERDICT_OK,
    VERDICT_QUARANTINED,
    VERDICT_REPAIRED,
    BadgeDayVerdict,
    DataQualityReport,
    QualityIssue,
)

log = get_logger("repro.quality.gate")

#: Float channels of a badge-day summary, in canonical order.
FLOAT_CHANNELS = (
    "x", "y", "accel_rms", "voice_db", "dominant_pitch_hz",
    "pitch_stability", "sound_db",
)
BOOL_CHANNELS = ("active", "worn")
ALL_CHANNELS = BOOL_CHANNELS + ("room",) + FLOAT_CHANNELS


@dataclass(frozen=True)
class QualityPolicy:
    """Validation thresholds for one mission's datasets.

    Defaults are deliberately generous: a clean simulated mission (and a
    plausibly noisy real one) must pass with every verdict ``ok`` — the
    gate flags corruption, not unusual-but-physical data.
    """

    #: Frames a complete badge-day holds.
    expected_frames: int
    #: Seconds-of-day every badge-day starts at.
    expected_t0: float
    #: Frame period, seconds.
    expected_dt: float
    #: Habitat bounds ``(x0, y0, x1, y1)`` for coordinate validation.
    bounds: tuple[float, float, float, float]
    #: Highest valid room index (exclusive); -1 means unknown.
    n_rooms: int
    #: Badge ids that may legitimately appear in the dataset.
    valid_badges: frozenset[int]
    #: Days that may legitimately appear in the dataset.
    valid_days: frozenset[int]
    #: Tolerated deviation of a day's ``t0`` before the clock is reset.
    clock_tolerance_s: float = 60.0
    #: Identical consecutive accelerometer values (while active) at or
    #: beyond this run length are a stuck sensor (clean data: runs <= 2).
    stuck_run_frames: int = 60
    #: A badge-day with more than this fraction of unusable frames is
    #: quarantined rather than repaired.
    max_unusable_fraction: float = 0.6
    #: Physical limits; values outside are corruption, not data.
    accel_max: float = 100.0
    level_min_db: float = -30.0
    level_max_db: float = 150.0
    pitch_max_hz: float = 2000.0
    #: Slack added around the floor-plan bounds before coordinates are
    #: considered impossible.
    bounds_margin_m: float = 0.5

    @classmethod
    def for_sensing(cls, sensing: MissionSensing, **overrides) -> "QualityPolicy":
        """Derive the policy a dataset's own config promises."""
        cfg = sensing.cfg
        rect = sensing.plan.bounds
        size = sensing.assignment.roster.size
        fields = dict(
            expected_frames=cfg.frames_per_day,
            expected_t0=cfg.daytime_start_s,
            expected_dt=cfg.frame_dt,
            bounds=(rect.x0, rect.y0, rect.x1, rect.y1),
            n_rooms=len(sensing.plan.rooms),
            valid_badges=frozenset(range(2 * size + 1)),
            valid_days=frozenset(cfg.instrumented_days),
        )
        fields.update(overrides)
        return cls(**fields)


def _long_equal_runs(values: np.ndarray, min_run: int) -> np.ndarray:
    """Mask of frames inside runs of >= ``min_run`` identical values.

    NaNs never extend a run (NaN != NaN), so legitimately-NaN inactive
    stretches are not flagged.
    """
    n = values.shape[0]
    if n == 0 or min_run > n:
        return np.zeros(n, dtype=bool)
    with np.errstate(invalid="ignore"):
        breaks = values[1:] != values[:-1]
    run_id = np.concatenate([[0], np.cumsum(breaks)])
    run_len = np.bincount(run_id)
    return run_len[run_id] >= min_run


class _BadgeDayInspector:
    """Copy-on-write inspection of one badge-day."""

    def __init__(self, summary: BadgeDaySummary, policy: QualityPolicy):
        self.original = summary
        self.policy = policy
        self.arrays: dict[str, np.ndarray] = {
            name: getattr(summary, name) for name in ALL_CHANNELS
        }
        self.true_room = summary.true_room
        self.t0 = summary.t0
        self.issues: list[QualityIssue] = []
        self.repairs: dict[str, int] = {}
        self.changed = False
        self.padded = 0
        self.masked = 0
        self.masked_channels: dict[str, int] = {}
        self.quarantine_reason: str | None = None

    # -- bookkeeping ---------------------------------------------------

    def issue(self, kind: str, detail: str = "", frames: int = 0) -> None:
        self.issues.append(QualityIssue(kind=kind, detail=detail, frames=frames))

    def repair(self, kind: str, count: int) -> None:
        if count:
            self.repairs[kind] = self.repairs.get(kind, 0) + int(count)
            self.changed = True

    def quarantine(self, kind: str, detail: str = "") -> None:
        self.issue(kind, detail)
        if self.quarantine_reason is None:
            self.quarantine_reason = kind

    def writable(self, name: str) -> np.ndarray:
        """The channel as a mutable copy (original is never touched)."""
        arr = self.arrays[name]
        if arr is getattr(self.original, name):
            arr = arr.copy()
            self.arrays[name] = arr
        return arr

    # -- checks --------------------------------------------------------

    def check_metadata(self) -> None:
        s, p = self.original, self.policy
        if s.badge_id not in p.valid_badges or s.day not in p.valid_days:
            self.quarantine(
                "foreign-badge-day",
                f"badge {s.badge_id} day {s.day} is not part of this mission",
            )
        if not np.isfinite(s.t0) or not np.isfinite(s.dt) or s.dt <= 0:
            self.quarantine("bad-clock", f"t0={s.t0!r} dt={s.dt!r}")
        elif abs(s.dt - p.expected_dt) > 1e-9:
            self.quarantine("bad-clock", f"dt {s.dt} != expected {p.expected_dt}")

    def check_dtypes(self) -> None:
        for name in ALL_CHANNELS:
            arr = self.arrays[name]
            if arr.ndim != 1:
                self.quarantine("bad-shape", f"{name} has {arr.ndim} dimensions")
                return
        for name in BOOL_CHANNELS:
            if self.arrays[name].dtype != np.bool_:
                self.issue("bad-dtype", f"{name} stored as {self.arrays[name].dtype}")
                self.arrays[name] = self.arrays[name].astype(bool)
                self.repair("recast", 1)
        room = self.arrays["room"]
        if room.dtype.kind not in "iu":
            self.issue("bad-dtype", f"room stored as {room.dtype}")
            with np.errstate(invalid="ignore"):
                self.arrays["room"] = np.where(
                    np.isfinite(room.astype(np.float64)), room, -1
                ).astype(np.int64)
            self.repair("recast", 1)
        for name in FLOAT_CHANNELS:
            if self.arrays[name].dtype.kind != "f":
                self.issue("bad-dtype", f"{name} stored as {self.arrays[name].dtype}")
                self.arrays[name] = self.arrays[name].astype(np.float32)
                self.repair("recast", 1)

    def harmonize_length(self) -> None:
        expected = self.policy.expected_frames
        lengths = {arr.shape[0] for arr in self.arrays.values()}
        if self.true_room is not None:
            lengths.add(self.true_room.shape[0])
        if len(lengths) > 1:
            lo, hi = min(lengths), max(lengths)
            self.issue("ragged-channels", f"lengths {lo}..{hi}", frames=hi - lo)
            self.repair("trimmed", hi - lo)
            self.arrays = {k: a[:lo] for k, a in self.arrays.items()}
            if self.true_room is not None:
                self.true_room = self.true_room[:lo]
        n = self.arrays["active"].shape[0]
        if n == 0:
            self.quarantine("empty", "no frames survived")
            return
        if n > expected:
            surplus = n - expected
            self.issue("frame-surplus", f"{n} frames for a {expected}-frame day",
                       frames=surplus)
            self.repair("deduplicated", surplus)
            self.arrays = {k: a[:expected] for k, a in self.arrays.items()}
            if self.true_room is not None:
                self.true_room = self.true_room[:expected]
        elif n < expected:
            missing = expected - n
            self.issue("truncated", f"{n} of {expected} frames", frames=missing)
            self.repair("padded", missing)
            self.padded = missing
            pad = {
                name: np.zeros(missing, dtype=bool) for name in BOOL_CHANNELS
            }
            pad["room"] = np.full(missing, -1, dtype=self.arrays["room"].dtype)
            for name in FLOAT_CHANNELS:
                pad[name] = np.full(missing, np.nan, dtype=self.arrays[name].dtype)
            self.arrays = {
                k: np.concatenate([a, pad[k]]) for k, a in self.arrays.items()
            }
            if self.true_room is not None:
                self.true_room = np.concatenate([
                    self.true_room,
                    np.full(missing, -1, dtype=self.true_room.dtype),
                ])

    def check_clock(self) -> None:
        p = self.policy
        if abs(self.t0 - p.expected_t0) > p.clock_tolerance_s:
            self.issue("clock-skew",
                       f"t0 {self.t0:.1f}s vs expected {p.expected_t0:.1f}s")
            self.repair("clock-reset", 1)
            self.t0 = p.expected_t0

    def check_frames(self) -> None:
        p = self.policy
        a = self.arrays
        active = a["active"]
        accel, sound, voice = a["accel_rms"], a["sound_db"], a["voice_db"]
        pitch, stability = a["dominant_pitch_hz"], a["pitch_stability"]
        x, y = a["x"], a["y"]

        with np.errstate(invalid="ignore"):
            # Each corruption predicate once, keyed by the channel it
            # masks: NaN on a recording frame, and values outside
            # physical limits.
            nan_masks = {
                name: active & np.isnan(a[name])
                for name in ("accel_rms", "sound_db", "voice_db")
            }
            limit_masks = {
                "accel_rms": (accel < 0) | (accel > p.accel_max) | np.isinf(accel),
                "sound_db": (
                    np.isinf(sound) | (sound < p.level_min_db) | (sound > p.level_max_db)
                ),
                "voice_db": np.isposinf(voice) | (voice > p.level_max_db),
                "x": np.isinf(x),
                "y": np.isinf(y),
                "dominant_pitch_hz": (
                    np.isinf(pitch) | (pitch <= 0) | (pitch > p.pitch_max_hz)
                ),
            }
            nan_active = functools.reduce(np.logical_or, nan_masks.values())
            impossible = functools.reduce(np.logical_or, limit_masks.values())
            stuck = _long_equal_runs(accel, p.stuck_run_frames) & active

            room = a["room"]
            room_bad = (room < -1) | (room >= p.n_rooms)
            x0, y0, x1, y1 = p.bounds
            m = p.bounds_margin_m
            coord_bad = (
                (x < x0 - m) | (x > x1 + m) | (y < y0 - m) | (y > y1 + m)
            ) & ~limit_masks["x"] & ~limit_masks["y"]
            stab_bad = ((stability < 0) | (stability > 1)) & np.isfinite(stability)

        if nan_active.any():
            n = int(nan_active.sum())
            self.issue("nan-in-active", "NaN sensor values on recording frames",
                       frames=n)
            self.repair("masked-nan", n)
        if impossible.any():
            n = int(impossible.sum())
            self.issue("impossible-values",
                       "sensor values outside physical limits", frames=n)
            self.repair("masked-impossible", n)
        if stuck.any():
            n = int(stuck.sum())
            self.issue("stuck-values",
                       f"identical accelerometer runs >= {p.stuck_run_frames} frames",
                       frames=n)
            self.repair("masked-stuck", n)
        if room_bad.any():
            n = int(room_bad.sum())
            self.issue("room-out-of-range", f"{p.n_rooms} rooms exist", frames=n)
            self.repair("room-cleared", n)
            self.writable("room")[room_bad] = -1
        if coord_bad.any():
            n = int(coord_bad.sum())
            self.issue("coords-out-of-bounds", "positions outside the habitat",
                       frames=n)
            self.repair("clamped", n)
            np.clip(x, x0, x1, out=self.writable("x"))
            np.clip(y, y0, y1, out=self.writable("y"))
        if stab_bad.any():
            n = int(stab_bad.sum())
            self.issue("stability-out-of-range", "pitch stability outside [0, 1]",
                       frames=n)
            self.repair("clamped", n)
            np.clip(stability, 0.0, 1.0, out=self.writable("pitch_stability"))

        bad = nan_active | impossible | stuck
        if bad.any():
            # Attribute each masked frame to the channel(s) whose values
            # triggered it, *before* the NaN scrub below destroys the
            # evidence.  A frame corrupted on several channels counts
            # once per channel; ``pitch_stability`` never masks (it is
            # clamped, not masked), so it never appears here.
            per_channel = dict(limit_masks)
            for name, nan in nan_masks.items():
                per_channel[name] = per_channel[name] | nan
            per_channel["accel_rms"] = per_channel["accel_rms"] | stuck
            for name, mask in per_channel.items():
                count = int(mask.sum())
                if count:
                    self.masked_channels[name] = count
        worn_loose = a["worn"] & ~active
        if worn_loose.any():
            n = int(worn_loose.sum())
            self.issue("worn-not-active", "worn frames without recording", frames=n)
            self.repair("worn-cleared", n)
        if bad.any() or worn_loose.any():
            self.masked = int(bad.sum())
            active_w = self.writable("active")
            active_w[bad] = False
            worn_w = self.writable("worn")
            worn_w[bad] = False
            np.logical_and(worn_w, active_w, out=worn_w)
            self.writable("room")[bad] = -1
            # Scrub the masked frames' sensor values to NaN — the
            # canonical no-data representation — so the offending bytes
            # (infinities, absurd magnitudes, latched runs) are never
            # served and re-gating the output finds nothing left to
            # repair (the gate is idempotent).
            for name in FLOAT_CHANNELS:
                self.writable(name)[bad] = np.nan

    # -- verdict -------------------------------------------------------

    def run(self) -> tuple[BadgeDayVerdict, BadgeDaySummary | None]:
        p = self.policy
        self.check_metadata()
        if self.quarantine_reason is None:
            self.check_dtypes()
        if self.quarantine_reason is None:
            self.harmonize_length()
        if self.quarantine_reason is None:
            self.check_clock()
            self.check_frames()
            unusable = self.masked + self.padded
            if unusable / p.expected_frames > p.max_unusable_fraction:
                self.quarantine(
                    "mostly-corrupt",
                    f"{unusable} of {p.expected_frames} frames unusable",
                )

        s = self.original
        if self.quarantine_reason is not None:
            verdict = BadgeDayVerdict(
                badge_id=s.badge_id, day=s.day, verdict=VERDICT_QUARANTINED,
                issues=tuple(self.issues), repairs=dict(self.repairs),
                frames_expected=p.expected_frames, frames_usable=0,
                masked_channels=dict(self.masked_channels),
            )
            return verdict, None
        if not self.issues and not self.changed and self.t0 == s.t0:
            verdict = BadgeDayVerdict(
                badge_id=s.badge_id, day=s.day, verdict=VERDICT_OK,
                frames_expected=p.expected_frames,
                frames_usable=p.expected_frames,
            )
            return verdict, s  # the very same object: bit-identical
        usable = p.expected_frames - self.masked - self.padded
        verdict = BadgeDayVerdict(
            badge_id=s.badge_id, day=s.day, verdict=VERDICT_REPAIRED,
            issues=tuple(self.issues), repairs=dict(self.repairs),
            frames_expected=p.expected_frames, frames_usable=usable,
            masked_channels=dict(self.masked_channels),
        )
        repaired = dataclasses.replace(
            s, t0=self.t0, true_room=self.true_room, **self.arrays
        )
        return verdict, repaired


def _gate_pairwise(
    pairwise: dict[int, PairwiseDay],
    kept: set[tuple[int, int]],
    policy: QualityPolicy,
) -> tuple[dict[int, PairwiseDay], int, int, int]:
    """Validate the badge-to-badge streams against the gated summaries."""
    checked = repaired = dropped = 0
    out: dict[int, PairwiseDay] = {}
    expected = policy.expected_frames
    for day in sorted(pairwise):
        src = pairwise[day]
        new = PairwiseDay(day=src.day)
        day_changed = False
        for pair in sorted(src.ir_contact):
            checked += 1
            i, j = pair
            if (i, day) not in kept or (j, day) not in kept:
                dropped += 1
                day_changed = True
                continue
            contact = src.ir_contact[pair]
            rssi = src.subghz_rssi.get(pair)
            fixed = False
            if contact.ndim != 1:
                dropped += 1
                day_changed = True
                continue
            if contact.dtype != np.bool_:
                contact = contact.astype(bool)
                fixed = True
            if contact.shape[0] > expected:
                contact = contact[:expected]
                fixed = True
            elif contact.shape[0] < expected:
                contact = np.concatenate([
                    contact, np.zeros(expected - contact.shape[0], dtype=bool)
                ])
                fixed = True
            if rssi is not None and rssi.shape[0] != expected:
                if rssi.shape[0] > expected:
                    rssi = rssi[:expected]
                else:
                    rssi = np.concatenate([
                        rssi,
                        np.full(expected - rssi.shape[0], np.nan, dtype=rssi.dtype),
                    ])
                fixed = True
            if fixed:
                repaired += 1
                day_changed = True
            new.ir_contact[pair] = contact
            if rssi is not None:
                new.subghz_rssi[pair] = rssi
        out[day] = new if day_changed else src
    return out, checked, repaired, dropped


def validate_sensing(
    sensing: MissionSensing, policy: QualityPolicy | None = None
) -> DataQualityReport:
    """Inspect every badge-day and report verdicts without serving data.

    Pure: the input dataset is never mutated.  Use :func:`gate_sensing`
    to also obtain the repaired/filtered dataset the verdicts describe.
    """
    _, report = _run_gate(sensing, policy)
    return report


def gate_sensing(
    sensing: MissionSensing,
    policy: QualityPolicy | None = None,
    strict: bool = False,
) -> tuple[MissionSensing, DataQualityReport]:
    """Validate, repair, and filter a sensing dataset.

    Returns ``(gated, report)`` where ``gated`` is a new
    :class:`MissionSensing` that serves only ``ok`` (untouched) and
    ``repaired`` badge-days, with ``gated.quality`` set to the report.
    ``ok`` badge-days are served as the *same objects*, so a clean
    dataset round-trips bit-identically.

    Args:
        strict: raise :class:`~repro.core.errors.DataError` if any
            badge-day had to be quarantined.
    """
    gated, report = _run_gate(sensing, policy)
    if strict and report.n_quarantined:
        raise DataError(
            f"{report.n_quarantined} badge-day(s) quarantined by the quality gate"
        )
    return gated, report


def _run_gate(
    sensing: MissionSensing, policy: QualityPolicy | None
) -> tuple[MissionSensing, DataQualityReport]:
    policy = policy if policy is not None else QualityPolicy.for_sensing(sensing)
    with span("quality.gate", badge_days=len(sensing.summaries)):
        verdicts: list[BadgeDayVerdict] = []
        served_by_key: dict[tuple[int, int], BadgeDaySummary] = {}
        for key in sorted(sensing.summaries):
            verdict, served = _BadgeDayInspector(
                sensing.summaries[key], policy
            ).run()
            verdicts.append(verdict)
            if served is not None:
                served_by_key[key] = served
            else:
                log.warning(
                    "badge-day-quarantined", badge=key[0], day=key[1],
                    reason=verdict.issues[0].kind if verdict.issues else "unknown",
                )
        # Preserve the input dict's insertion order: analyses that fold
        # over ``summaries`` must see badge-days in the same sequence
        # gated or not, or a clean dataset would not round-trip
        # bit-identically (dict-ordered results would reorder).
        gated_summaries = {
            key: served_by_key[key]
            for key in sensing.summaries if key in served_by_key
        }
        pairwise, checked, repaired, dropped = _gate_pairwise(
            sensing.pairwise, set(gated_summaries), policy
        )
        report = DataQualityReport(
            verdicts=tuple(verdicts),
            frames_expected=policy.expected_frames,
            pairwise_checked=checked,
            pairwise_repaired=repaired,
            pairwise_dropped=dropped,
        )
        if _obs.enabled:
            by_verdict = _metrics.counter(
                "quality.badge_days", "badge-days through the gate, by verdict"
            )
            for verdict in verdicts:
                by_verdict.inc(verdict=verdict.verdict)
            repairs = _metrics.counter(
                "quality.repairs", "repair operations applied, by kind"
            )
            for kind, count in report.repairs_total().items():
                repairs.inc(count, kind=kind)
            masked = sum(
                v.frames_expected - v.frames_usable
                for v in verdicts if v.verdict == VERDICT_REPAIRED
            )
            if masked:
                _metrics.counter(
                    "quality.frames_masked", "frames masked or padded by repairs"
                ).inc(masked)
            for verdict in verdicts:
                if verdict.verdict == VERDICT_QUARANTINED:
                    _metrics.counter(
                        "quality.quarantined", "badge-days quarantined, by reason"
                    ).inc(reason=verdict.issues[0].kind if verdict.issues else "unknown")
        gated = MissionSensing(
            cfg=sensing.cfg, plan=sensing.plan, assignment=sensing.assignment,
            summaries=gated_summaries, pairwise=pairwise, quality=report,
        )
    return gated, report
