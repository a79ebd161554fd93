"""Report surfaces of the analytic reliability model.

Everything here is plain data with the codebase's uniform
``to_dict()`` / ``to_text()`` pair: a :class:`Band` (model mean plus the
finite-horizon confidence interval it came with), the full
:class:`ReliabilityPrediction` for one campaign, the
:class:`ValidationResult` comparing a prediction against a measured
:class:`~repro.faults.report.ReliabilityReport`, and one ranked
:class:`Regime` from the worst-case search.  Dict forms are
deterministic and JSON-serializable so campaign predictions can be
diffed and archived by CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Band:
    """A model mean with its finite-horizon confidence interval."""

    mean: float
    lo: float
    hi: float

    def contains(self, value: Optional[float]) -> bool:
        """Whether a measured value falls inside the band.

        ``None`` (a metric with nothing to measure, e.g. MTTR with no
        closed outage) is vacuously inside: the model predicted a
        distribution, the campaign produced no sample of it.
        """
        if value is None:
            return True
        return self.lo - 1e-12 <= value <= self.hi + 1e-12

    def to_dict(self) -> dict:
        return {"mean": self.mean, "lo": self.lo, "hi": self.hi}

    def __str__(self) -> str:
        return f"{self.mean:.4g} [{self.lo:.4g}, {self.hi:.4g}]"


@dataclass(frozen=True)
class DeliveryPrediction:
    """Per-kind reliable-delivery forecast."""

    kind: str
    n_sent: int
    expected_dead: float
    success: Band

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_sent": self.n_sent,
            "expected_dead": self.expected_dead,
            "success": self.success.to_dict(),
        }


@dataclass(frozen=True)
class ReliabilityPrediction:
    """Closed-form forecast of one campaign's ReliabilityReport."""

    horizon_s: float
    #: Confidence level of every band (two-sided), e.g. 0.998.
    confidence: float
    #: Per-node expected availability over the horizon, with bands.
    availability: dict[str, Band] = field(default_factory=dict)
    #: Steady-state per-node availability (the CTMC limit).
    steady_state_availability: dict[str, float] = field(default_factory=dict)
    #: Mean repair time of a closed outage, with the band for the
    #: *expected* number of closed outages (validation re-conditions the
    #: band on the observed count).
    mttr_s: Optional[Band] = None
    #: Expected closed outages over the horizon, with a Poisson band.
    n_outages: Optional[Band] = None
    #: Per-kind delivery forecasts.
    delivery: dict[str, DeliveryPrediction] = field(default_factory=dict)
    #: P(relay up and >=1 service replica up) — steady state and
    #: expected over the horizon (from the composed CTMC).
    system_availability: Optional[float] = None
    system_availability_steady: Optional[float] = None
    #: Expected injected events by fault class (informational).
    expected_faults: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "horizon_s": self.horizon_s,
            "confidence": self.confidence,
            "availability": {
                k: self.availability[k].to_dict() for k in sorted(self.availability)
            },
            "steady_state_availability": {
                k: self.steady_state_availability[k]
                for k in sorted(self.steady_state_availability)
            },
            "mttr_s": self.mttr_s.to_dict() if self.mttr_s is not None else None,
            "n_outages": self.n_outages.to_dict() if self.n_outages is not None else None,
            "delivery": {k: self.delivery[k].to_dict() for k in sorted(self.delivery)},
            "system_availability": self.system_availability,
            "system_availability_steady": self.system_availability_steady,
            "expected_faults": {
                k: self.expected_faults[k] for k in sorted(self.expected_faults)
            },
        }

    def to_text(self) -> str:
        lines = [
            f"CTMC reliability prediction over {self.horizon_s / 3600.0:.1f} h "
            f"({self.confidence:.1%} bands):"
        ]
        for node in sorted(self.availability):
            band = self.availability[node]
            steady = self.steady_state_availability.get(node)
            steady_txt = f", steady-state {steady:.4f}" if steady is not None else ""
            lines.append(
                f"  availability[{node}]: {band.mean:.4f} "
                f"[{band.lo:.4f}, {band.hi:.4f}]{steady_txt}"
            )
        if self.mttr_s is not None:
            lines.append(
                f"  MTTR: {self.mttr_s.mean:.0f} s "
                f"[{self.mttr_s.lo:.0f}, {self.mttr_s.hi:.0f}]"
            )
        if self.n_outages is not None:
            lines.append(
                f"  closed outages: {self.n_outages.mean:.1f} "
                f"[{self.n_outages.lo:.0f}, {self.n_outages.hi:.0f}]"
            )
        for kind in sorted(self.delivery):
            d = self.delivery[kind]
            lines.append(
                f"  delivery[{kind}]: {d.success.mean:.1%} "
                f"[{d.success.lo:.1%}, {d.success.hi:.1%}] "
                f"({d.expected_dead:.1f} of {d.n_sent} expected dead)"
            )
        if self.system_availability is not None:
            lines.append(
                f"  system availability (relay && a service up): "
                f"{self.system_availability:.5f} "
                f"(steady-state {self.system_availability_steady:.5f})"
            )
        if self.expected_faults:
            parts = ", ".join(
                f"{k}={self.expected_faults[k]:.1f}"
                for k in sorted(self.expected_faults)
            )
            lines.append(f"  expected fault events: {parts}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CoveragePrediction:
    """Closed-form forecast of one campaign's DataQualityReport.

    The sensing-level counterpart of :class:`ReliabilityPrediction`:
    instead of bus availability it predicts what the quality gate will
    say about the mission's assembled badge-days — verdict counts, the
    coverage fraction, per-channel masked-frame counts, per-kind repair
    counts — plus the localization degradation from dead-beacon days.
    """

    horizon_s: float
    #: Confidence level of every band (two-sided), e.g. 0.998.
    confidence: float
    #: Badge-days the gate will see (exact: faults never add or remove
    #: badge-days, they only damage their contents).
    badge_days: int
    #: Mean usable-frame fraction over all badge-days.
    coverage: Band
    #: Badge-day verdict counts (ok + repaired + quarantined = total).
    n_ok: Band
    n_repaired: Band
    n_quarantined: Band
    #: Frames masked per corrupt channel (``pitch_stability`` never
    #: masks — garbage there is clamped — so it never appears).
    masked_channels: dict[str, Band] = field(default_factory=dict)
    #: Frames / occurrences per repair kind.
    repairs: dict[str, Band] = field(default_factory=dict)
    #: Instrumented (beacon, day) pairs with the beacon dead during the
    #: day's sensing window — the localizer masks these columns.
    dead_beacon_days: Optional[Band] = None
    #: Expected injected events by fault class (informational).
    expected_faults: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "horizon_s": self.horizon_s,
            "confidence": self.confidence,
            "badge_days": self.badge_days,
            "coverage": self.coverage.to_dict(),
            "n_ok": self.n_ok.to_dict(),
            "n_repaired": self.n_repaired.to_dict(),
            "n_quarantined": self.n_quarantined.to_dict(),
            "masked_channels": {
                k: self.masked_channels[k].to_dict()
                for k in sorted(self.masked_channels)
            },
            "repairs": {
                k: self.repairs[k].to_dict() for k in sorted(self.repairs)
            },
            "dead_beacon_days": (
                self.dead_beacon_days.to_dict()
                if self.dead_beacon_days is not None else None
            ),
            "expected_faults": {
                k: self.expected_faults[k] for k in sorted(self.expected_faults)
            },
        }

    def to_text(self) -> str:
        lines = [
            f"coverage prediction over {self.horizon_s / 3600.0:.1f} h "
            f"({self.confidence:.1%} bands), {self.badge_days} badge-days:",
            f"  coverage: {self.coverage.mean:.4f} "
            f"[{self.coverage.lo:.4f}, {self.coverage.hi:.4f}]",
            f"  ok: {self.n_ok}",
            f"  repaired: {self.n_repaired}",
            f"  quarantined: {self.n_quarantined}",
        ]
        if self.dead_beacon_days is not None:
            lines.append(f"  dead beacon-days: {self.dead_beacon_days}")
        if self.masked_channels:
            lines.append("  masked frames by channel:")
            for name in sorted(self.masked_channels):
                lines.append(f"    {name:<20} {self.masked_channels[name]}")
        if self.repairs:
            lines.append("  repairs:")
            for name in sorted(self.repairs):
                lines.append(f"    {name:<20} {self.repairs[name]}")
        if self.expected_faults:
            parts = ", ".join(
                f"{k}={self.expected_faults[k]:.1f}"
                for k in sorted(self.expected_faults)
            )
            lines.append(f"  expected fault events: {parts}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ValidationCheck:
    """One model-vs-empirical comparison."""

    metric: str
    empirical: Optional[float]
    band: Band
    inside: bool

    @classmethod
    def of(cls, metric: str, empirical: Optional[float],
           band: Band) -> "ValidationCheck":
        """The check of one measured value against its band."""
        return cls(metric, empirical, band, band.contains(empirical))

    @property
    def delta(self) -> Optional[float]:
        """Empirical minus model mean (the obs-exported residual)."""
        if self.empirical is None:
            return None
        return self.empirical - self.band.mean

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "empirical": self.empirical,
            "band": self.band.to_dict(),
            "delta": self.delta,
            "inside": self.inside,
        }


@dataclass(frozen=True)
class ValidationResult:
    """A measured campaign checked against its CTMC prediction."""

    campaign_seed: int
    horizon_s: float
    confidence: float
    checks: tuple[ValidationCheck, ...] = ()

    @property
    def all_inside(self) -> bool:
        return all(check.inside for check in self.checks)

    @property
    def n_outside(self) -> int:
        return sum(1 for check in self.checks if not check.inside)

    def to_dict(self) -> dict:
        return {
            "campaign_seed": self.campaign_seed,
            "horizon_s": self.horizon_s,
            "confidence": self.confidence,
            "all_inside": self.all_inside,
            "checks": [check.to_dict() for check in self.checks],
        }

    def to_text(self) -> str:
        verdict = "PASS" if self.all_inside else f"FAIL ({self.n_outside} outside)"
        lines = [
            f"model validation, campaign seed {self.campaign_seed}, "
            f"{self.horizon_s / 3600.0:.1f} h, {self.confidence:.1%} bands: {verdict}"
        ]
        for check in self.checks:
            marker = "ok " if check.inside else "OUT"
            emp = f"{check.empirical:.4g}" if check.empirical is not None else "n/a"
            lines.append(
                f"  [{marker}] {check.metric}: empirical {emp}, "
                f"model {check.band}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Regime:
    """One ranked point of the worst-case search."""

    rank: int
    score: float
    #: Predicted drivers of the score.
    min_availability: float
    delivery_loss: float
    #: The concrete seeded campaign reproducing this regime empirically.
    campaign: "object"  # FaultCampaign; untyped to avoid an import cycle
    #: The sampled rate overrides that define the regime.
    overrides: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        import dataclasses

        return {
            "rank": self.rank,
            "score": self.score,
            "min_availability": self.min_availability,
            "delivery_loss": self.delivery_loss,
            "overrides": {k: self.overrides[k] for k in sorted(self.overrides)},
            "campaign": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in sorted(dataclasses.asdict(self.campaign).items())
            },
        }

    def to_text(self) -> str:
        parts = ", ".join(
            f"{k}={self.overrides[k]:.4g}" for k in sorted(self.overrides)
        )
        return (
            f"#{self.rank} score={self.score:.4f} "
            f"min_avail={self.min_availability:.4f} "
            f"delivery_loss={self.delivery_loss:.4f} "
            f"seed={self.campaign.seed} [{parts}]"
        )


@dataclass(frozen=True)
class CoverageRegime:
    """One ranked point of the worst-*coverage* search."""

    rank: int
    score: float
    #: Predicted drivers of the score.
    coverage: float
    expected_quarantined: float
    #: The concrete seeded campaign reproducing this regime empirically.
    campaign: "object"  # FaultCampaign; untyped to avoid an import cycle
    #: The sampled overrides that define the regime.
    overrides: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        import dataclasses

        return {
            "rank": self.rank,
            "score": self.score,
            "coverage": self.coverage,
            "expected_quarantined": self.expected_quarantined,
            "overrides": {k: self.overrides[k] for k in sorted(self.overrides)},
            "campaign": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in sorted(dataclasses.asdict(self.campaign).items())
            },
        }

    def to_text(self) -> str:
        parts = ", ".join(
            f"{k}={self.overrides[k]:.4g}" for k in sorted(self.overrides)
        )
        return (
            f"#{self.rank} score={self.score:.4f} "
            f"coverage={self.coverage:.4f} "
            f"quarantined={self.expected_quarantined:.2f} "
            f"seed={self.campaign.seed} [{parts}]"
        )
