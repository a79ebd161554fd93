"""repro.reliability: analytic CTMC reliability model + model-guided search.

The fault campaigns in :mod:`repro.faults` measure reliability
*empirically* — run the seeded campaign, read the
:class:`~repro.faults.report.ReliabilityReport`.  This package is the
matching *analytic* side:

- :mod:`repro.reliability.ctmc` — CTMC machinery: generic generator
  matrices, the up/down two-state chain every fault class reduces to,
  and the finite-horizon sampling distributions (compound
  Poisson-Erlang downtime) the confidence bands come from;
- :mod:`repro.reliability.model` — :class:`ReliabilityModel`, which
  derives transition rates *mechanically* from a
  :class:`~repro.faults.campaign.FaultCampaign` and predicts
  availability, MTTR, outage counts, and reliable-delivery success in
  closed form;
- :mod:`repro.reliability.validate` — runs a seeded campaign through
  the real system and asserts the measured report lands inside the
  model's bands (bands from the horizon's own sampling distribution,
  not hand-tuned tolerances);
- :mod:`repro.reliability.search` — sweeps the rate space cheaply in
  closed form and emits the top-K predicted-worst regimes as concrete
  seeded campaigns for the tier-2 chaos suite;
- :mod:`repro.reliability.coverage` — :class:`CoverageModel`, the same
  machinery for the *sensing*-level fault classes: closed-form
  predictions of the quality gate's coverage metrics (verdict counts,
  masked channels, repairs, dead beacon-days), validated against gated
  mission runs.

Both models carry the same protocol (``reference``, ``default_config``,
the sweep space, the regime record type, ``measure`` and ``compare``),
so :func:`sweep_regimes` and :func:`validate_campaign` take the model
class as ``model=`` and serve both.

Usage::

    from repro.faults.campaign import FaultCampaign
    from repro.reliability import (
        CoverageModel, ReliabilityModel, sweep_regimes, validate_campaign)

    campaign = FaultCampaign.reference(days=14, seed=0)
    prediction = ReliabilityModel(campaign).predict()
    result, report = validate_campaign(campaign)
    assert result.all_inside
    worst = sweep_regimes(top_k=3, model=CoverageModel)
"""

from repro.reliability.coverage import CoverageModel
from repro.reliability.ctmc import CTMC, TwoStateChain
from repro.reliability.model import (
    DEFAULT_CONFIDENCE,
    ReliabilityModel,
    expected_event_counts,
)
from repro.reliability.prediction import (
    Band,
    CoveragePrediction,
    CoverageRegime,
    DeliveryPrediction,
    Regime,
    ReliabilityPrediction,
    ValidationCheck,
    ValidationResult,
)
from repro.reliability.search import sweep_regimes
from repro.reliability.validate import validate_campaign

__all__ = [
    "Band",
    "CTMC",
    "CoverageModel",
    "CoveragePrediction",
    "CoverageRegime",
    "DEFAULT_CONFIDENCE",
    "DeliveryPrediction",
    "Regime",
    "ReliabilityModel",
    "ReliabilityPrediction",
    "TwoStateChain",
    "ValidationCheck",
    "ValidationResult",
    "expected_event_counts",
    "sweep_regimes",
    "validate_campaign",
]
