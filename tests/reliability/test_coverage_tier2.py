"""Tier-2 chaos: run the model's predicted-worst *coverage* regimes.

The sensing-level counterpart of ``test_search_tier2.py``: the analytic
sweep picks the regimes that destroy the most data, and the expensive
empirical budget — a full gated mission per regime — is spent exactly
there.  Each emitted regime is a fixed-seed campaign, so the runs (and
their validation verdicts) are deterministic.
"""

import pytest

from repro.faults.campaign import FaultCampaign
from repro.reliability import CoverageModel, sweep_regimes, validate_campaign

pytestmark = pytest.mark.tier2


class TestWorstCoverageRegimesEmpirically:
    @pytest.fixture(scope="class")
    def campaigns(self):
        base = FaultCampaign.coverage_reference(days=7, seed=0)
        return [r.campaign for r in sweep_regimes(
            base, n_regimes=64, seed=0, top_k=3, model=CoverageModel)]

    def test_emits_three_regimes(self, campaigns):
        assert len(campaigns) == 3
        assert len({c.seed for c in campaigns}) == 3
        for campaign in campaigns:
            # Sensing campaigns: the bus classes stay silenced so the
            # quality gate is the sole judge of the damage.
            assert campaign.crashes_per_day == 0.0
            assert campaign.blackouts_per_day == 0.0

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_regime_survives_and_validates(self, campaigns, index):
        campaign = campaigns[index]
        result, report = validate_campaign(campaign, model=CoverageModel)
        # The regime genuinely dirties the dataset...
        assert report.n_repaired + report.n_quarantined > 0
        # ...the gate serves a legal report under it...
        assert 0.0 <= report.coverage() <= 1.0
        for verdict in report.verdicts:
            assert 0 <= verdict.frames_usable <= verdict.frames_expected
        # ...and the model's bands still hold at the extremes, not just
        # around the reference rates.
        assert result.all_inside, "\n" + result.to_text()
