"""Smoke-size runs: the fewest requests a phase may run, traced and untraced."""

import pytest

from perfbench import cold_mission, fleet_service, layers, sensing_sweep
from perfbench.spans import ADDITIVITY_TOLERANCE_S, Tracer

WORKLOADS = {"cold_mission": cold_mission, "sensing_sweep": sensing_sweep,
             "fleet_service": fleet_service}


def run_phase(wl, seed, work, tracer=None):
    _, session = wl.setup(seed, work, 1, traced=tracer is not None)
    try:
        return wl.measure(session, seed, work, 0.0, tracer)
    finally:
        wl.close(session)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_traced_and_untraced(name, tmp_path):
    """With no time budget, each phase runs just the requests it digests."""
    wl = WORKLOADS[name]
    n = wl.DIGEST_REQUESTS
    plain = run_phase(wl, 5, tmp_path)
    traced = run_phase(wl, 5, tmp_path, Tracer())
    for m in (plain, traced):
        assert m.attempted >= n and m.failed == 0, m.failures
        assert m.badge_days > 0 and m.wall_s > 0
    assert traced.digest(n) == plain.digest(n) != "incomplete"

    values, breakdowns = layers.layer_metrics(
        traced.spans, traced.extra, layers.overhead(plain.latencies, traced.latencies))
    assert set(values) == set(layers.UNITS)
    assert breakdowns and all(b.additivity_error_s <= ADDITIVITY_TOLERANCE_S
                              for b in breakdowns)
    shares = [values[f"{layer}.share"] for layer in layers.LAYERS]
    assert sum(shares) + values["trace.remainder_share"] == pytest.approx(1.0)
    assert values["localization.fix_ratio"] > 0.9
    if name == "sensing_sweep":
        assert values["crew.share"] == 0.0
        assert values["exec.cache_hit_ratio"] > 0.0
    if name == "cold_mission":
        assert values["exec.cache_load_share"] == values["exec.journal_share"] == 0.0
        assert values["service.share"] == 0.0
        assert values["analytics.figures_share"] > 0.0
    if name == "fleet_service":
        assert values["service.share"] > 0.0 and 0.0 < values["service.useful_ratio"] <= 1.0
        assert values["crew.share"] > 0.0
