"""Model-guided worst-case search over the fault-rate space.

The empirical chaos suite can only afford a handful of campaigns per
run, so *which* campaigns it runs matters.  This module sweeps the
fault-rate space in closed form — each candidate regime is scored by the
analytic :class:`~repro.reliability.model.ReliabilityModel` in well
under a millisecond, ~1000x cheaper than simulating it — and emits the
top-K worst regimes as concrete, seeded
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
from typing import Callable, Optional

import numpy as np

from repro.core.errors import ConfigError
from repro.faults.campaign import FaultCampaign
from repro.obs import span
from repro.reliability.coverage import CoverageModel
from repro.reliability.model import ReliabilityModel
from repro.reliability.prediction import CoverageRegime, Regime

__all__ = [
    "COVERAGE_SWEPT_COUNTS",
    "COVERAGE_SWEPT_FIELDS",
    "SWEPT_FIELDS",
    "sweep_coverage_regimes",
    "sweep_regimes",
    "worst_case_campaigns",
    "worst_coverage_campaigns",
]

#: Campaign fields the sweep perturbs, with the (log-uniform) multiplier
#: range applied to each.  Rates and durations both scale up to 8x and
#: down to 4x; ``lossy_prob`` is swept directly in [0.05, 0.9].
SWEPT_FIELDS: dict[str, tuple[float, float]] = {
    "crashes_per_day": (0.25, 8.0),
    "mean_downtime_s": (0.25, 8.0),
    "flaps_per_day": (0.25, 8.0),
    "mean_flap_s": (0.25, 8.0),
    "lossy_windows_per_day": (0.25, 8.0),
    "mean_lossy_s": (0.25, 8.0),
    "blackouts_per_day": (0.25, 8.0),
    "mean_blackout_s": (0.25, 8.0),
}


def _regime_campaign(
    base: FaultCampaign, overrides: dict[str, float], campaign_seed: int
) -> FaultCampaign:
    fields = dict(overrides)
    fields["seed"] = campaign_seed
    return dataclasses.replace(base, **fields)


def _rank_regimes(
    record: type,
    span_name: str,
    base: FaultCampaign,
    n_regimes: int,
    seed: int,
    top_k: int,
    draw: Callable[[np.random.Generator], dict[str, float]],
    score: Callable[[FaultCampaign], tuple[float, float, float]],
) -> list:
    """The sweep loop both searches share.

    ``draw(rng)`` samples one regime's field overrides from the sweep RNG
    and ``score(campaign)`` returns its ``(badness, driver, driver)``.
    Returns the ``top_k`` worst as ``record`` instances (:class:`Regime`
    or :class:`CoverageRegime`), ranked by descending badness with ties
    broken by campaign seed for determinism.
    """
    if n_regimes < 1:
        raise ConfigError("n_regimes must be >= 1")
    if not 1 <= top_k <= n_regimes:
        raise ConfigError("top_k must be in [1, n_regimes]")

    rng = np.random.default_rng(seed)
    scored = []
    with span(span_name, n_regimes=n_regimes, seed=seed):
        for i in range(n_regimes):
            overrides = draw(rng)
            campaign = _regime_campaign(base, overrides, seed * 100_000 + i)
            scored.append((score(campaign), overrides, campaign))
    scored.sort(key=lambda entry: (-entry[0][0], entry[2].seed))
    return [
        record(rank, *scores, campaign, {k: float(v) for k, v in overrides.items()})
        for rank, (scores, overrides, campaign) in enumerate(scored[:top_k], start=1)
    ]


def sweep_regimes(
    base: Optional[FaultCampaign] = None,
    n_regimes: int = 64,
    seed: int = 0,
    top_k: int = 3,
    earth_link_delay_s: float = 20 * 60.0,
) -> list[Regime]:
    """Sweep ``n_regimes`` sampled fault regimes analytically, rank them.

    Each regime perturbs the ``base`` campaign (default: the reference
    campaign at the base's horizon) by log-uniform multipliers over
    :data:`SWEPT_FIELDS` plus a directly sampled ``lossy_prob``, scores
    it with the closed-form model, and keeps the ``top_k`` worst by
    predicted badness (system unavailability + min-node unavailability +
    expected delivery loss).  Returns ranked :class:`Regime` records
    whose campaigns are concrete and seeded — ready for empirical replay.
    """
    if base is None:
        base = FaultCampaign.reference()

    def draw(rng: np.random.Generator) -> dict[str, float]:
        overrides: dict[str, float] = {}
        for name, (lo, hi) in SWEPT_FIELDS.items():
            mult = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            overrides[name] = float(getattr(base, name)) * mult
        overrides["lossy_prob"] = float(rng.uniform(0.05, 0.9))
        return overrides

    return _rank_regimes(
        Regime, "reliability.sweep", base, n_regimes, seed, top_k, draw,
        lambda campaign: ReliabilityModel(
            campaign, earth_link_delay_s=earth_link_delay_s).score(),
    )


#: Sensing-level rate/duration fields the coverage sweep perturbs
#: (log-uniform multipliers, like the bus sweep).
COVERAGE_SWEPT_FIELDS: dict[str, tuple[float, float]] = {
    "beacon_outages_per_day": (0.25, 8.0),
    "mean_beacon_outage_s": (0.25, 8.0),
}

#: Whole-mission *count* fields the coverage sweep perturbs; the
#: multiplier is applied to the base count and rounded (minimum 0).
COVERAGE_SWEPT_COUNTS: tuple[str, ...] = (
    "bitrot_days",
    "truncated_days",
    "duplicated_days",
    "stuck_days",
    "clock_desyncs",
    "battery_depletions",
)


def sweep_coverage_regimes(
    base: Optional[FaultCampaign] = None,
    n_regimes: int = 64,
    seed: int = 0,
    top_k: int = 3,
) -> list[CoverageRegime]:
    """Sweep sensing-fault regimes analytically, rank by coverage loss.

    The coverage counterpart of :func:`sweep_regimes`: each regime
    perturbs the ``base`` campaign (default:
    :meth:`FaultCampaign.coverage_reference`) over the data-corruption
    counts, battery depletions, and beacon-outage rates, scores it with
    the closed-form :class:`CoverageModel`, and keeps the ``top_k``
    worst by predicted data destruction (coverage loss + quarantined
    fraction + dead-beacon-column fraction).
    """
    if base is None:
        base = FaultCampaign.coverage_reference()

    def draw(rng: np.random.Generator) -> dict[str, float]:
        overrides: dict[str, float] = {}
        for name, (lo, hi) in COVERAGE_SWEPT_FIELDS.items():
            mult = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            overrides[name] = float(getattr(base, name)) * mult
        for name in COVERAGE_SWEPT_COUNTS:
            mult = float(np.exp(rng.uniform(np.log(0.25), np.log(8.0))))
            overrides[name] = int(round(getattr(base, name) * mult))
        return overrides

    return _rank_regimes(
        CoverageRegime, "reliability.sweep_coverage", base, n_regimes, seed, top_k,
        draw, lambda campaign: CoverageModel(campaign).score(),
    )


def worst_coverage_campaigns(
    base: Optional[FaultCampaign] = None,
    k: int = 3,
    n_regimes: int = 64,
    seed: int = 0,
) -> list[FaultCampaign]:
    """The ``k`` worst predicted-coverage regimes as runnable campaigns."""
    return [
        regime.campaign
        for regime in sweep_coverage_regimes(
            base, n_regimes=n_regimes, seed=seed, top_k=k
        )
    ]


def worst_case_campaigns(
    base: Optional[FaultCampaign] = None,
    k: int = 3,
    n_regimes: int = 64,
    seed: int = 0,
) -> list[FaultCampaign]:
    """The ``k`` worst predicted regimes as ready-to-run campaigns.

    This is the tier-2 chaos suite's entry point: each returned campaign
    is seeded and concrete, so ``campaign.generate()`` reproduces the
    exact fault plan the model flagged.
    """
    return [
        regime.campaign
        for regime in sweep_regimes(base, n_regimes=n_regimes, seed=seed, top_k=k)
    ]
