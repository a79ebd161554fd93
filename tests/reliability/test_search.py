"""Unit tests for the model-guided worst-case regime search."""

import json

import pytest

from repro.core.errors import ConfigError
from repro.faults.campaign import FaultCampaign
from repro.reliability.model import ReliabilityModel
from repro.reliability.search import sweep_regimes


@pytest.fixture(scope="module")
def base() -> FaultCampaign:
    return FaultCampaign.reference(days=3, seed=0)


class TestSweep:
    def test_deterministic(self, base):
        one = sweep_regimes(base, n_regimes=24, seed=5, top_k=3)
        two = sweep_regimes(base, n_regimes=24, seed=5, top_k=3)
        assert json.dumps([r.to_dict() for r in one], sort_keys=True) == \
               json.dumps([r.to_dict() for r in two], sort_keys=True)

    def test_ranked_descending(self, base):
        regimes = sweep_regimes(base, n_regimes=24, seed=0, top_k=5)
        assert [r.rank for r in regimes] == [1, 2, 3, 4, 5]
        scores = [r.score for r in regimes]
        assert scores == sorted(scores, reverse=True)

    def test_overrides_within_sampled_ranges(self, base):
        for regime in sweep_regimes(base, n_regimes=16, seed=1, top_k=16):
            for name, (lo, hi) in ReliabilityModel.swept_rates.items():
                value = regime.overrides[name]
                baseline = float(getattr(base, name))
                assert lo * baseline <= value <= hi * baseline
            assert 0.05 <= regime.overrides["lossy_prob"] <= 0.9
            # The emitted campaign actually carries the overrides.
            for name, value in regime.overrides.items():
                assert getattr(regime.campaign, name) == pytest.approx(value)

    def test_campaign_seeds_are_pure_function_of_sweep(self, base):
        regimes = sweep_regimes(base, n_regimes=8, seed=3, top_k=8)
        seeds = {r.campaign.seed for r in regimes}
        assert seeds <= {3 * 100_000 + i for i in range(8)}
        assert len(seeds) == 8  # one campaign per sampled regime

    def test_argument_validation(self, base):
        with pytest.raises(ConfigError):
            sweep_regimes(base, n_regimes=0)
        with pytest.raises(ConfigError):
            sweep_regimes(base, n_regimes=4, top_k=5)

    def test_default_base_is_reference(self):
        regimes = sweep_regimes(n_regimes=2, top_k=1)
        assert regimes[0].campaign.horizon_s == \
               FaultCampaign.reference().horizon_s


class TestWorstCase:
    def test_emits_k_runnable_campaigns(self, base):
        campaigns = [r.campaign for r in sweep_regimes(
            base, n_regimes=16, seed=0, top_k=3)]
        assert len(campaigns) == 3
        for campaign in campaigns:
            plan = campaign.generate()
            assert len(plan.events) > 0
            # Seeded: regenerating reproduces the exact plan.
            assert plan == campaign.generate()

    def test_regime_text_mentions_drivers(self, base):
        regime = sweep_regimes(base, n_regimes=8, seed=0, top_k=1)[0]
        text = regime.to_text()
        assert "score=" in text and "min_avail=" in text
        assert f"seed={regime.campaign.seed}" in text
