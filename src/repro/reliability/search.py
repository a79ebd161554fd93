"""Model-guided worst-case search over the fault-rate space.

The empirical chaos suite can only afford a handful of campaigns per
run, so *which* campaigns it runs matters.  This module sweeps the
fault-rate space in closed form — each candidate regime is scored by an
analytic model (:class:`~repro.reliability.model.ReliabilityModel` or
:class:`~repro.reliability.coverage.CoverageModel`) in well under a
millisecond, ~1000x cheaper than simulating it — and emits the top-K
worst regimes as concrete, seeded
:class:`~repro.faults.campaign.FaultCampaign` configs.  Those feed the
tier-2 chaos tests and the nightly CI job, so the expensive empirical
budget is always spent where the model says the system is weakest.

Everything is deterministic: the sweep samples multipliers from
``np.random.default_rng(seed)`` and each regime's campaign seed is a
pure function of ``(seed, index)``, so a given sweep always reproduces
byte-identical campaigns.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.errors import ConfigError
from repro.faults.campaign import FaultCampaign
from repro.obs import span
from repro.reliability.model import ReliabilityModel

__all__ = ["sweep_regimes"]


def _draw(model: type, base: FaultCampaign,
          rng: np.random.Generator) -> dict[str, float]:
    """One regime's field overrides, in the model's sweep order."""

    def multiplier(lo: float, hi: float) -> float:
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    overrides: dict[str, float] = {}
    for name, (lo, hi) in model.swept_rates.items():
        overrides[name] = float(getattr(base, name)) * multiplier(lo, hi)
    for name, (lo, hi) in model.swept_counts.items():
        overrides[name] = int(round(getattr(base, name) * multiplier(lo, hi)))
    for name, (lo, hi) in model.swept_values.items():
        overrides[name] = float(rng.uniform(lo, hi))
    return overrides


def sweep_regimes(
    base: Optional[FaultCampaign] = None,
    n_regimes: int = 64,
    seed: int = 0,
    top_k: int = 3,
    *,
    model: type = ReliabilityModel,
) -> list:
    """Sweep ``n_regimes`` sampled fault regimes analytically, rank them.

    Each regime perturbs the ``base`` campaign (default:
    ``model.reference()``) over the model's sweep space, is scored by
    ``model.score()``, and the ``top_k`` worst by predicted badness are
    kept — for :class:`ReliabilityModel` system unavailability +
    min-node unavailability + expected delivery loss, for
    :class:`~repro.reliability.coverage.CoverageModel` coverage loss +
    quarantined fraction + dead-beacon-column fraction.  Returns ranked
    ``model.regime`` records, ties broken by campaign seed, whose
    campaigns are concrete and seeded — ready for empirical replay
    (``[r.campaign for r in sweep_regimes(...)]``).
    """
    if n_regimes < 1:
        raise ConfigError("n_regimes must be >= 1")
    if not 1 <= top_k <= n_regimes:
        raise ConfigError("top_k must be in [1, n_regimes]")
    if base is None:
        base = model.reference()
    # Every regime keeps the base's horizon, so one config serves all.
    cfg = model.default_config(base)

    rng = np.random.default_rng(seed)
    scored = []
    with span("reliability.sweep", model=model.__name__,
              n_regimes=n_regimes, seed=seed):
        for i in range(n_regimes):
            overrides = _draw(model, base, rng)
            campaign = dataclasses.replace(
                base, **overrides, seed=seed * 100_000 + i)
            scored.append((model(campaign, cfg).score(), overrides, campaign))
    scored.sort(key=lambda entry: (-entry[0][0], entry[2].seed))
    return [
        model.regime(rank, *scores, campaign,
                     {k: float(v) for k, v in overrides.items()})
        for rank, (scores, overrides, campaign) in enumerate(scored[:top_k], start=1)
    ]
