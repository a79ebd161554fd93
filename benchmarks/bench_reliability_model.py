"""The analytic reliability model's speed advantage, and its price.

Two guards: (1) sweeping the fault-rate space in closed form must stay
at least 100x cheaper *per regime* than measuring one regime empirically
— that gap is the entire reason the worst-case search can afford to
score dozens of regimes before spending the chaos suite's budget; (2) a
full banded prediction (quantile bisections included) must stay cheap
enough to run inline in CI on every campaign.
"""

from __future__ import annotations

import time

import dataclasses

from benchmarks.conftest import write_artifact
from repro.core.config import MissionConfig
from repro.faults.campaign import FaultCampaign
from repro.faults.scenario import run_support_scenario
from repro.reliability import CoverageModel, ReliabilityModel, sweep_regimes

#: The acceptance floor: analytic regime scoring vs empirical replay.
MIN_ANALYTIC_SPEEDUP = 100.0

N_REGIMES = 64


def test_analytic_sweep_beats_empirical_by_100x(artifact_dir):
    campaign = FaultCampaign.reference(days=14, seed=0)

    # Empirical cost: one seeded campaign through the real stack
    # (generation + simulation + reporting), best of three.
    cfg = MissionConfig(days=14, seed=7)
    empirical_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_support_scenario(cfg, campaign.generate())
        empirical_s.append(time.perf_counter() - t0)
    empirical_s = min(empirical_s)

    # Analytic cost: the same regime-space, scored in closed form.
    t0 = time.perf_counter()
    regimes = sweep_regimes(
        base=campaign, n_regimes=N_REGIMES, seed=0, top_k=3)
    analytic_total_s = time.perf_counter() - t0
    analytic_s = analytic_total_s / N_REGIMES

    speedup = empirical_s / analytic_s
    write_artifact(
        artifact_dir, "reliability_model_speedup.txt",
        f"empirical campaign:  {empirical_s * 1e3:8.1f} ms\n"
        f"analytic sweep:      {analytic_total_s * 1e3:8.1f} ms "
        f"for {N_REGIMES} regimes ({analytic_s * 1e6:.0f} us each)\n"
        f"per-regime speedup:  {speedup:8.0f}x (floor: "
        f"{MIN_ANALYTIC_SPEEDUP:.0f}x)\n"
        f"top regime: {regimes[0].to_text()}\n",
    )
    assert len(regimes) == 3
    assert speedup >= MIN_ANALYTIC_SPEEDUP, (
        f"analytic scoring only {speedup:.0f}x faster than empirical "
        f"replay ({analytic_s * 1e6:.0f} us vs {empirical_s * 1e3:.1f} ms)"
    )


def test_coverage_predictor_beats_gated_mission_by_100x(artifact_dir):
    """The sensing-level counterpart: a full banded coverage prediction
    vs one empirical gated-mission replay of the same campaign."""
    campaign = FaultCampaign.coverage_reference(days=14, seed=0)
    cfg = CoverageModel.default_config(campaign)

    # Empirical cost: generate the plan, assemble the mission, gate it.
    from repro.experiments.mission import run_mission

    empirical_s = []
    for _ in range(2):
        mission_cfg = dataclasses.replace(cfg, fault_plan=campaign.generate())
        t0 = time.perf_counter()
        run_mission(mission_cfg, quality="gate")
        empirical_s.append(time.perf_counter() - t0)
    empirical_s = min(empirical_s)

    # Analytic cost: a full banded prediction, best of three.
    analytic_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        prediction = CoverageModel(campaign, cfg).predict()
        analytic_s.append(time.perf_counter() - t0)
    analytic_s = min(analytic_s)

    # And the regime-search amortization on top of it.
    t0 = time.perf_counter()
    regimes = sweep_regimes(
        base=campaign, n_regimes=N_REGIMES, seed=0, top_k=3, model=CoverageModel)
    sweep_s = (time.perf_counter() - t0) / N_REGIMES

    speedup = empirical_s / analytic_s
    write_artifact(
        artifact_dir, "coverage_model_speedup.txt",
        f"empirical gated mission: {empirical_s * 1e3:8.1f} ms\n"
        f"analytic prediction:     {analytic_s * 1e3:8.1f} ms "
        f"({speedup:.0f}x, floor: {MIN_ANALYTIC_SPEEDUP:.0f}x)\n"
        f"sweep per regime:        {sweep_s * 1e6:8.0f} us\n"
        f"top regime: {regimes[0].to_text()}\n",
    )
    assert len(regimes) == 3
    assert prediction.coverage.lo <= prediction.coverage.hi
    assert speedup >= MIN_ANALYTIC_SPEEDUP, (
        f"coverage prediction only {speedup:.0f}x faster than a gated "
        f"mission ({analytic_s * 1e3:.1f} ms vs {empirical_s * 1e3:.1f} ms)"
    )


def test_full_prediction_cost(benchmark, artifact_dir):
    """A banded predict() — quantile bisections and the composed-chain
    system availability included — on the 14-day reference campaign."""
    campaign = FaultCampaign.reference(days=14, seed=0)

    def predict():
        return ReliabilityModel(campaign).predict()

    prediction = benchmark(predict)
    write_artifact(
        artifact_dir, "reliability_model_prediction.txt",
        prediction.to_text() + "\n",
    )
    assert prediction.availability["relay"].lo < \
        prediction.availability["relay"].hi
    # The prediction that validation pins: sane, ordered, populated.
    assert set(prediction.delivery) == {"submit", "status"}
    assert prediction.system_availability is not None
