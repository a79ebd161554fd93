"""Empirical validation of an analytic model against seeded campaigns.

:func:`validate_campaign` generates the campaign's concrete fault plan,
runs it through the real system the model predicts (``model.measure``),
and checks every measured metric against the model's finite-horizon
confidence bands (``model.compare``).  For
:class:`~repro.reliability.model.ReliabilityModel` that is the support
stack's :class:`~repro.faults.report.ReliabilityReport` — per-node
availability, MTTR, closed-outage count, per-kind delivery success; for
:class:`~repro.reliability.coverage.CoverageModel` it is a gated
mission's :class:`~repro.quality.report.DataQualityReport`.  The whole
pipeline is seeded, so a given ``(campaign, cfg)`` pair produces a
byte-identical :class:`ValidationResult` every run; that is what the
tier-1 reference-campaign tests pin.

Model-vs-empirical residuals are exported through :mod:`repro.obs`
(``reliability.model.delta`` gauges, ``reliability.validations``
counter) so long-running deployments can watch the analytic model drift
away from the measured system.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import MissionConfig
from repro.faults.campaign import FaultCampaign
from repro.obs import _state as _obs
from repro.obs import metrics as _metrics
from repro.obs import span
from repro.reliability.model import DEFAULT_CONFIDENCE, ReliabilityModel
from repro.reliability.prediction import ValidationResult


def _export_deltas(result: ValidationResult) -> None:
    if not _obs.enabled:
        return
    gauge = _metrics.gauge(
        "reliability.model.delta",
        "empirical minus predicted, by validation metric",
    )
    for check in result.checks:
        if check.delta is not None:
            gauge.set(check.delta, metric=check.metric)
    _metrics.counter(
        "reliability.validations",
        "model validations run, by outcome",
    ).inc(outcome="pass" if result.all_inside else "fail")


def validate_campaign(
    campaign: FaultCampaign,
    cfg: Optional[MissionConfig] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    *,
    model: type = ReliabilityModel,
) -> tuple[ValidationResult, object]:
    """Run ``campaign`` empirically and grade it against ``model``.

    Returns ``(validation, report)``: the report is the support
    scenario's :class:`~repro.faults.report.ReliabilityReport` or the
    gated mission's :class:`~repro.quality.report.DataQualityReport`.
    The mission config defaults to ``model.default_config(campaign)``,
    which matches the campaign's horizon.
    """
    fitted = model(campaign, cfg)
    with span("reliability.validate", model=model.__name__,
              seed=campaign.seed, days=campaign.days):
        plan = campaign.generate()
        report = fitted.measure(plan)
        result = fitted.compare(report, confidence, plan=plan)
    _export_deltas(result)
    return result, report
