"""Tier-1 acceptance: fixed-seed sensing campaigns land inside the
coverage model's confidence bands, byte-reproducibly.

The coverage counterpart of ``test_validation.py``: three independent
14-day :meth:`FaultCampaign.coverage_reference` campaigns run through a
*real* gated mission (plan generation → dataset corruption → quality
gate), and every number the resulting :class:`DataQualityReport`
carries — coverage fraction, verdict counts, per-channel masked frames,
per-kind repairs, dead beacon-days, per-kind event draws — is checked
against bands the model derives from the campaign's own sampling
distributions.  Nothing here is tuned to the seeds: the bands come from
the rates, and the seeds were not cherry-picked (0, 1, 2).
"""

import json

import pytest

from repro.faults.campaign import FaultCampaign
from repro.reliability import (
    CoverageModel,
    expected_event_counts,
    sweep_regimes,
    validate_campaign,
)


def _campaign(seed=0, days=14):
    return FaultCampaign.coverage_reference(days=days, seed=seed)


class TestReferenceCampaigns:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coverage_campaign_inside_bands(self, seed):
        campaign = _campaign(seed)
        result, report = validate_campaign(campaign, model=CoverageModel)
        assert result.all_inside, "\n" + result.to_text()
        # The comparison is substantive: the headline coverage metric,
        # every verdict count, the localizer's dead beacon columns, and
        # each fault kind's actual draw count.
        metrics = {check.metric for check in result.checks}
        assert {"badge_days", "coverage", "verdicts[ok]",
                "verdicts[repaired]", "verdicts[quarantined]",
                "dead_beacon_days"} <= metrics
        for kind in expected_event_counts(campaign):
            assert f"events[{kind}]" in metrics
        # Per-channel masked-frame checks exist for the kinds that mask.
        assert any(m.startswith("masked[") for m in metrics)
        assert any(m.startswith("repairs[") for m in metrics)

    def test_validation_byte_reproducible(self):
        campaign = _campaign(0)
        first = json.dumps(
            validate_campaign(campaign, model=CoverageModel)[0].to_dict(), sort_keys=True)
        second = json.dumps(
            validate_campaign(campaign, model=CoverageModel)[0].to_dict(), sort_keys=True)
        assert first == second


class TestCompareQualityReport:
    def test_clean_report_fails_heavy_model(self):
        """A model expecting heavy corruption flags a clean mission."""
        light = _campaign(0, days=3)
        _, report = validate_campaign(light, model=CoverageModel)
        heavy = FaultCampaign(
            seed=0, horizon_s=light.horizon_s, n_beacons=0,
            badge_ids=light.badge_ids,
            crashes_per_day=0.0, flaps_per_day=0.0,
            lossy_windows_per_day=0.0, blackouts_per_day=0.0,
            bitrot_days=40, truncated_days=40,
        )
        result = CoverageModel(
            heavy, CoverageModel.default_config(heavy)).compare(report)
        assert not result.all_inside

    def test_result_text_and_dict_agree(self):
        campaign = _campaign(1, days=3)
        result, _ = validate_campaign(campaign, model=CoverageModel)
        text = result.to_text()
        assert ("PASS" in text) == result.all_inside
        data = result.to_dict()
        assert data["all_inside"] == result.all_inside
        assert len(data["checks"]) == len(result.checks)


class TestCoverageModel:
    def test_expected_coverage_matches_prediction_mean(self):
        model = CoverageModel(_campaign(0))
        prediction = model.predict()
        assert model.expected_coverage() == pytest.approx(
            prediction.coverage.mean)
        assert 0.0 <= prediction.coverage.lo <= prediction.coverage.mean \
            <= prediction.coverage.hi <= 1.0

    def test_no_badges_predicts_full_coverage(self):
        campaign = FaultCampaign(
            seed=0, horizon_s=14 * 86_400.0, n_beacons=0, badge_ids=(),
            crashes_per_day=0.0, flaps_per_day=0.0,
            lossy_windows_per_day=0.0, blackouts_per_day=0.0,
        )
        model = CoverageModel(campaign)
        assert model.p_hit == 0.0
        prediction = model.predict()
        assert prediction.coverage.mean == 1.0
        assert prediction.coverage.lo == prediction.coverage.hi == 1.0
        assert prediction.n_quarantined.mean == 0.0
        assert prediction.dead_beacon_days is None

    def test_hit_probability_matches_cell_geometry(self):
        # Identity the occupancy maths relies on: an event strikes *some*
        # valid cell with probability cells * u_cell == p_hit.
        model = CoverageModel(_campaign(0))
        assert model.cells * model.u_cell == pytest.approx(model.p_hit)

    def test_distinct_cell_pmf_is_a_distribution(self):
        model = CoverageModel(_campaign(0))
        for n in (0, 1, 2, 7, 30):
            pmf = model._distinct_valid_pmf(n)
            assert len(pmf) == min(n, model.cells) + 1
            assert sum(pmf) == pytest.approx(1.0)
            assert all(p >= 0.0 for p in pmf)
        # One draw: struck-a-valid-cell probability is exactly p_hit.
        assert model._distinct_valid_pmf(1)[1] == pytest.approx(model.p_hit)

    def test_distinct_cell_mean_saturates_below_binomial(self):
        """Collisions: distinct cells grow strictly slower than n*p_hit."""
        model = CoverageModel(_campaign(0))
        pmf = model._distinct_valid_pmf(30)
        mean = sum(s * p for s, p in enumerate(pmf))
        assert mean < 30 * model.p_hit
        assert mean <= model.cells

    def test_pmf_quantile(self):
        pmf = [0.1, 0.4, 0.4, 0.1]
        assert CoverageModel._pmf_quantile(pmf, 0.05) == 0
        assert CoverageModel._pmf_quantile(pmf, 0.5) == 1
        assert CoverageModel._pmf_quantile(pmf, 0.95) == 3
        assert CoverageModel._pmf_quantile(pmf, 0.999) == 3

    def test_prediction_byte_reproducible(self):
        first = CoverageModel(_campaign(2)).predict()
        second = CoverageModel(_campaign(2)).predict()
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)


class TestCoverageSweep:
    def test_sweep_is_deterministic(self):
        first = sweep_regimes(n_regimes=16, seed=3, top_k=3, model=CoverageModel)
        second = sweep_regimes(n_regimes=16, seed=3, top_k=3, model=CoverageModel)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_sweep_ranks_by_badness(self):
        regimes = sweep_regimes(n_regimes=16, seed=3, top_k=3, model=CoverageModel)
        assert len(regimes) == 3
        assert [r.rank for r in regimes] == [1, 2, 3]
        scores = [r.score for r in regimes]
        assert scores == sorted(scores, reverse=True)
        for regime in regimes:
            # Every regime is a runnable sensing campaign, bus silenced.
            assert regime.campaign.crashes_per_day == 0.0
            assert regime.campaign.badge_ids
