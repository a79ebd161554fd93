"""Tier-1 acceptance: fixed-seed reference campaigns land inside the
CTMC model's confidence bands, byte-reproducibly.

These are the model's ground-truth anchors — three independent 14-day
seeded campaigns run through the *real* support stack, every measured
metric (per-node availability, MTTR, closed-outage count, per-kind
delivery success) checked against bands the model derives from the
campaign's own finite-horizon sampling distributions.  Nothing here is
tuned to the seeds: the bands come from the rates, and the seeds were
not cherry-picked (0, 1, 2).
"""

import json

import pytest

from repro import obs
from repro.faults.campaign import FaultCampaign
from repro.reliability import ReliabilityModel, validate_campaign
from repro.reliability.prediction import Band, ValidationCheck, ValidationResult


class TestReferenceCampaigns:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_campaign_inside_bands(self, seed):
        campaign = FaultCampaign.reference(days=14, seed=seed)
        result, report = validate_campaign(campaign)
        assert result.all_inside, "\n" + result.to_text()
        # The comparison is substantive: availability for each node the
        # campaign can crash, MTTR, outage count, both delivery kinds.
        metrics = {check.metric for check in result.checks}
        for node in campaign.nodes:
            assert f"availability[{node}]" in metrics
        assert {"mttr_s", "n_outages", "delivery[submit]",
                "delivery[status]"} <= metrics

    def test_validation_byte_reproducible(self):
        campaign = FaultCampaign.reference(days=14, seed=0)
        first = json.dumps(
            validate_campaign(campaign)[0].to_dict(), sort_keys=True)
        second = json.dumps(
            validate_campaign(campaign)[0].to_dict(), sort_keys=True)
        assert first == second


class TestCompareReport:
    def test_doctored_report_flagged_outside(self):
        campaign = FaultCampaign.reference(days=3, seed=0)
        model = ReliabilityModel(campaign)
        _, report = validate_campaign(campaign)
        report.availability["relay"] = 0.2  # far below any plausible band
        result = model.compare(report)
        assert not result.all_inside
        outside = {c.metric for c in result.checks if not c.inside}
        assert "availability[relay]" in outside

    def test_none_empirical_is_vacuously_inside(self):
        band = Band(mean=0.5, lo=0.4, hi=0.6)
        check = ValidationCheck(
            metric="delivery[status]", empirical=None, band=band,
            inside=band.contains(None))
        assert check.inside
        assert check.delta is None

    def test_result_text_and_dict_agree(self):
        campaign = FaultCampaign.reference(days=2, seed=1)
        result, _ = validate_campaign(campaign)
        text = result.to_text()
        assert ("PASS" in text) == result.all_inside
        data = result.to_dict()
        assert data["all_inside"] == result.all_inside
        assert len(data["checks"]) == len(result.checks)


class TestObsExport:
    def test_deltas_and_outcome_exported(self):
        obs.reset()
        obs.enable()
        try:
            campaign = FaultCampaign.reference(days=2, seed=0)
            result, _ = validate_campaign(campaign)
            gauge = obs.metrics.registry.get("reliability.model.delta")
            assert gauge is not None
            exported = {
                dict(key)["metric"] for key in gauge._series
            }
            with_delta = {
                c.metric for c in result.checks if c.delta is not None
            }
            assert exported == with_delta
            counter = obs.metrics.registry.get("reliability.validations")
            outcome = "pass" if result.all_inside else "fail"
            assert counter.value(outcome=outcome) == 1.0
        finally:
            obs.reset()

    def test_no_export_while_disabled(self):
        obs.reset()
        campaign = FaultCampaign.reference(days=1, seed=0)
        validate_campaign(campaign)
        assert obs.metrics.registry.get("reliability.model.delta") is None
