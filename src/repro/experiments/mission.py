"""Full-mission experiment driver.

Runs the complete stack day by day: ground-truth crew simulation, badge
and radio sensing, localization, and summary reduction.  The large BLE
scan matrices are consumed and dropped per badge-day, so a full 14-day
mission stays comfortably in memory.

Execution is delegated to :mod:`repro.exec`: an
:class:`~repro.core.config.ExecutionConfig` selects serial or supervised
process-pool execution of the per-day work (bit-identical either way)
and an optional content-addressed store (``cache_dir``) of ground truth
and completed days.  A run with a store holds the fingerprint's writer
lease, reads the days the store already has and stores each new day as
it lands, so rerunning a killed mission resumes it without recomputing
completed days.  Whether a mission may use the pool is the
supervisor's call (:mod:`repro.exec.supervisor`): missions with
*sensing*-level faults always run serially — SD-card capacity faults
couple days through the cumulative write budget (see
:mod:`repro.exec.executor`); bus-level and executor-level faults do not
couple days and keep the parallel path.  Every fall-back to serial
execution is signalled (structured log + ``exec.fallback`` counter),
never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analytics.dataset import MissionSensing
from repro.badges.assignment import BadgeAssignment
from repro.badges.pipeline import SensingModels
from repro.badges.sdcard import SdCardAccountant
from repro.core.config import ExecutionConfig, MissionConfig
from repro.crew.behavior import simulate_mission
from repro.crew.trace import MissionTruth
from repro.exec.cache import MissionCache
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.executor import (
    DayOutcome,
    ExecutorUnavailable,
    compute_day,
    day_stack,
    replay_accounting,
)
from repro.core.errors import ConfigError
from repro.exec.hashing import canonical, truth_compatible
from repro.exec.supervisor import run_days_supervised
from repro.faults.data import apply_data_faults
from repro.faults.report import ReliabilityReport
from repro.faults.scenario import run_support_scenario
from repro.quality.gate import gate_sensing
from repro.quality.report import DataQualityReport
from repro.localization.pipeline import Localizer
from repro.obs import _state as _obs
from repro.obs import enabled as obs_enabled
from repro.obs import export as obs_export
from repro.obs import get_logger
from repro.obs import metrics as _metrics
from repro.obs import span

log = get_logger("repro.experiments.mission")


def _signal_fallback(reason: str, **fields) -> None:
    """Make a serial fallback visible: structured log + labelled counter.

    Parallelism silently disabling itself looks exactly like a hung
    sweep from the outside; every downgrade is therefore both logged and
    counted (``exec.fallback``, by reason).
    """
    log.warning("parallel-fallback", reason=reason, **fields)
    if _obs.enabled:
        _metrics.counter(
            "exec.fallback", "parallel execution downgraded to serial, by reason"
        ).inc(reason=reason)


@dataclass
class MissionResult:
    """Everything a mission run produces."""

    cfg: MissionConfig
    truth: MissionTruth
    sensing: MissionSensing
    models: SensingModels
    sdcard: SdCardAccountant = field(default_factory=SdCardAccountant)
    #: Telemetry snapshot (:func:`repro.obs.export.to_dict`) taken right
    #: after the run when :mod:`repro.obs` was enabled, else None.
    telemetry: Optional[obs_export.TelemetrySnapshot] = None
    #: Support-system reliability under the configured fault plan
    #: (availability, MTTR, delivery success); None for fault-free runs.
    reliability: Optional[ReliabilityReport] = None
    #: The execution config the run used (workers, cache).
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: Per-stage cache hit/miss counts when a cache was active, else None.
    cache_stats: Optional[dict] = None
    #: Data-quality verdicts from the ingest gate (``quality != "off"``
    #: with gating in effect); None when the dataset was never gated.
    quality: Optional[DataQualityReport] = None

    @property
    def assignment(self) -> BadgeAssignment:
        return self.sensing.assignment

    # -- the uniform report surface ------------------------------------
    #
    # Every report-like object exposes the same pair: ``to_dict()`` for
    # plain data, ``to_text()`` for the human-readable rendering —
    # matching ReliabilityReport and TelemetrySnapshot.

    def to_dict(self) -> dict:
        """Plain-data summary of the run (JSON-serializable)."""
        days = self.sensing.days
        return {
            "config": canonical(self.cfg),
            "execution": canonical(self.execution),
            "days": days,
            "badge_days": len(self.sensing.summaries),
            "sdcard_gib": self.sdcard.total_gib(),
            "cache": self.cache_stats,
            "telemetry": self.telemetry.to_dict() if self.telemetry is not None else None,
            "reliability": self.reliability.to_dict() if self.reliability is not None else None,
            "quality": self.quality.to_dict() if self.quality is not None else None,
        }

    def to_text(self) -> str:
        """Human-readable run summary with reliability and telemetry."""
        cfg = self.cfg
        lines = [
            f"mission: {cfg.days} days, seed {cfg.seed}, "
            f"{len(self.sensing.summaries)} badge-days, "
            f"{self.sdcard.total_gib():.1f} GiB recorded",
        ]
        if self.execution.parallel or self.execution.cache_active:
            stats = self.cache_stats or {}
            cache = "off" if "hits" not in stats else (
                f"{stats['hits']['day']} day hits, "
                f"{stats['misses']['day']} misses"
            )
            lines.append(
                f"execution: {self.execution.worker_count} worker(s), cache {cache}"
            )
            checkpoint = stats.get("checkpoint")
            if checkpoint is not None:
                resumed = checkpoint["resumed_days"]
                lines.append(
                    f"checkpoint: {checkpoint['recorded']} day(s) stored, "
                    f"{len(resumed)} resumed"
                    + (f" ({', '.join(map(str, resumed))})" if resumed else "")
                )
        if self.quality is not None:
            lines.append("")
            lines.append(self.quality.to_text())
        if self.reliability is not None:
            lines.append("")
            lines.append(self.reliability.to_text())
        if self.telemetry is not None:
            lines.append("")
            lines.append(self.telemetry.to_text())
        return "\n".join(lines)


def run_mission(
    cfg: MissionConfig | None = None,
    *,
    truth: MissionTruth | None = None,
    localizer: Localizer | None = None,
    models: SensingModels | None = None,
    execution: ExecutionConfig | None = None,
    quality: str = "auto",
) -> MissionResult:
    """Simulate, sense, and localize a full mission.

    All overrides are keyword-only: the signature grows by adding
    keywords, never by position.

    Args:
        cfg: mission configuration (defaults to the paper's mission).
        truth: reuse a pre-simulated ground truth.  It must agree with
            ``cfg`` on the truth-stage fields
            (:data:`repro.exec.hashing.TRUTH_FIELDS`), else
            :class:`ConfigError`; sensing always reads ``cfg``, never
            the config the truth was simulated under.
        localizer: override the localization pipeline (ablations).
        models: override the sensing models (ablations).
        execution: how to run — worker count, day store
            (:class:`~repro.core.config.ExecutionConfig`; defaults to
            serial, no store).  Never affects results, only speed and
            crash-safety.
        quality: ingest-gate mode — ``"auto"`` gates only when the fault
            plan injects data corruption, ``"gate"`` always gates,
            ``"strict"`` gates and raises on any quarantine, ``"off"``
            never gates (corrupt data flows to analytics unfiltered).

    Returns:
        A :class:`MissionResult` whose ``sensing`` feeds every analysis.
    """
    if quality not in ("auto", "off", "gate", "strict"):
        raise ConfigError(
            f"quality must be one of auto/off/gate/strict, got {quality!r}")
    cfg = cfg if cfg is not None else MissionConfig()
    execution = execution if execution is not None else ExecutionConfig()
    cache = MissionCache(execution.cache_dir) if execution.cache_active else None

    with span("mission", days=cfg.days, seed=cfg.seed,
              workers=execution.worker_count):
        truth = _resolve_truth(cfg, truth, cache)
        assignment, rngs, fleet = day_stack(cfg, truth)
        default_stack = models is None and localizer is None
        models = models if models is not None else SensingModels.default(cfg, truth.plan)
        localizer = (
            localizer if localizer is not None else Localizer(truth.plan, models.beacons)
        )
        sdcard = SdCardAccountant()
        sensing = MissionSensing(cfg=cfg, plan=truth.plan, assignment=assignment)
        plan = cfg.fault_plan
        if plan is not None:
            for badge_id, cap in plan.sdcard_caps().items():
                sdcard.set_capacity(badge_id, cap)

        # Days are stored only for the default sensing stack: custom
        # models/localizers are not part of the artifact keys, so storing
        # their outcomes would poison later default-stack runs of the same
        # config.  A run that stores days holds the fingerprint's writer
        # lease while it computes, so a second live run gets a clean
        # JournalBusyError here instead of computing the same days.
        journal = (
            CheckpointJournal(cache, cfg, owner="run_mission")
            if cache is not None and default_stack else None
        )

        try:
            outcomes: dict[int, DayOutcome] = (
                journal.load_completed(cfg.instrumented_days)
                if journal is not None else {})
            missing = [d for d in cfg.instrumented_days if d not in outcomes]
            # Each day is stored the moment it completes — serially, as
            # the supervisor delivers it, or salvaged out of a broken pool —
            # so a later crash can resume past it.
            persist = journal.record if journal is not None else lambda _: None

            _compute_missing_days(
                cfg, truth, assignment, models, localizer, fleet, rngs, sdcard,
                plan, missing, outcomes, execution, persist,
            )

            for day in cfg.instrumented_days:
                outcome = outcomes[day]
                for badge_id, summary in outcome.summaries.items():
                    sensing.summaries[(badge_id, day)] = summary
                sensing.pairwise[day] = outcome.pairwise
        finally:
            if journal is not None:
                journal.close()

        # Data corruption strikes the assembled dataset — after the
        # per-day pipeline (so stored outcomes stay pristine) and before
        # the quality gate sees it.
        has_data_faults = plan is not None and bool(plan.data_events())
        if has_data_faults:
            sensing = apply_data_faults(sensing, plan, cfg.seed)

        quality_report: DataQualityReport | None = None
        if quality in ("gate", "strict") or (quality == "auto" and has_data_faults):
            sensing, quality_report = gate_sensing(
                sensing, strict=(quality == "strict"))

        reliability = run_support_scenario(cfg, plan) if plan is not None else None

    telemetry = obs_export.to_dict() if obs_enabled() else None
    cache_stats = cache.stats() if cache is not None else None
    if journal is not None:
        cache_stats["checkpoint"] = journal.stats()
    return MissionResult(
        cfg=cfg, truth=truth, sensing=sensing, models=models,
        sdcard=sdcard, telemetry=telemetry, reliability=reliability,
        execution=execution, cache_stats=cache_stats, quality=quality_report,
    )


def _resolve_truth(
    cfg: MissionConfig,
    truth: MissionTruth | None,
    cache: MissionCache | None,
) -> MissionTruth:
    """Supplied truth, cached truth, or a fresh simulation (then cached)."""
    if truth is not None:
        if not truth_compatible(cfg, truth.cfg):
            raise ConfigError(
                "supplied truth disagrees with the mission config on its "
                "truth-stage fields; simulate it for this config")
        return truth
    if cache is not None:
        cached = cache.load_truth(cfg)
        if cached is not None:
            return cached
    truth = simulate_mission(cfg)
    if cache is not None:
        cache.store_truth(cfg, truth)
    return truth


def _compute_missing_days(
    cfg: MissionConfig,
    truth: MissionTruth,
    assignment: BadgeAssignment,
    models: SensingModels,
    localizer: Localizer,
    fleet,
    rngs,
    sdcard: SdCardAccountant,
    plan,
    missing: list[int],
    outcomes: dict[int, DayOutcome],
    execution: ExecutionConfig,
    persist,
) -> None:
    """Fill ``outcomes`` for ``missing`` days, persisting each as it lands.

    An execution config that asks for a pool hands the days to the
    supervisor, which decides whether this mission may use one.  When it
    refuses, or its pool cannot finish (a worker died, a day hung), the
    fall-back is signalled and the *remaining* days run serially:
    everything the pool completed was already persisted.  Either way the
    mission-level ``sdcard`` accountant ends up in the exact state a
    purely serial run would produce.
    """
    if execution.parallel and missing:
        def land(outcome: DayOutcome) -> None:
            persist(outcome)
            outcomes[outcome.day] = outcome

        try:
            run_days_supervised(cfg, truth, models, localizer, missing,
                                execution, on_outcome=land)
        except ExecutorUnavailable as exc:
            # Salvaged days are already in ``outcomes``; only the rest
            # falls back to serial below.
            _signal_fallback(exc.reason, detail=str(exc),
                             workers=execution.worker_count,
                             salvaged=len([d for d in missing if d in outcomes]))

    # Serial path: restored/cached/pool-computed days replay their
    # accounting in day order so a later (possibly faulted) day sees the
    # exact cumulative totals; a pool that finished leaves nothing to
    # compute.  Only sensing-level faults (battery cuts, SD-card caps,
    # beacon outages) touch compute_day.
    sensing_plan = plan if plan is not None and plan.sensing_events() else None
    for day in cfg.instrumented_days:
        if day in outcomes:
            replay_accounting(outcomes[day], sdcard)
            continue
        outcome = compute_day(
            cfg, truth, day, assignment, models, localizer, fleet, rngs,
            sdcard, sensing_plan,
        )
        persist(outcome)
        outcomes[day] = outcome
