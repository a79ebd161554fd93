"""Tests for hydration tracking."""

import pytest

from repro.core.engine import Simulator
from repro.core.errors import ConfigError
from repro.support.bus import Network
from repro.support.hydration import (
    FluidEvent,
    HydrationTracker,
    fluid_events_from_truth,
)


@pytest.fixture()
def tracker():
    sim = Simulator()
    t = HydrationTracker("hydro", sim, astronauts=["A", "B"])
    Network(sim).register(t)
    return t


class TestBalance:
    def test_intake_raises_balance(self, tracker):
        tracker.ingest(FluidEvent(100.0, "A", "intake", 220.0))
        assert tracker.balance("A") > 200.0

    def test_urine_lowers_balance(self, tracker):
        tracker.ingest(FluidEvent(100.0, "A", "urine", 280.0))
        assert tracker.balance("A") < -270.0

    def test_insensible_loss_over_time(self, tracker):
        tracker.ingest(FluidEvent(2 * 3600.0, "A", "intake", 0.0))
        assert tracker.balance("A") == pytest.approx(-120.0, rel=0.01)

    def test_unknown_astronaut_ignored(self, tracker):
        tracker.ingest(FluidEvent(0.0, "Z", "intake", 220.0))
        assert "Z" not in tracker.states

    def test_unknown_kind_rejected(self, tracker):
        with pytest.raises(ConfigError):
            tracker.ingest(FluidEvent(0.0, "A", "sweat", 100.0))


class TestAlerts:
    def test_dehydration_alert(self, tracker):
        for k in range(3):
            tracker.ingest(FluidEvent(100.0 * k, "A", "urine", 280.0))
        alerts = [a for a in tracker.alerts if a.subject == "A"]
        assert alerts and alerts[0].kind == "dehydration"

    def test_alert_once_until_rehydrated(self, tracker):
        for k in range(5):
            tracker.ingest(FluidEvent(100.0 * k, "A", "urine", 280.0))
        assert len([a for a in tracker.alerts if a.subject == "A"]) == 1

    def test_rehydration_resets(self, tracker):
        for k in range(3):
            tracker.ingest(FluidEvent(100.0 * k, "A", "urine", 280.0))
        for k in range(10):
            tracker.ingest(FluidEvent(400.0 + 10 * k, "A", "intake", 220.0))
        assert tracker.balance("A") > 0
        for k in range(12):
            tracker.ingest(FluidEvent(600.0 + 10 * k, "A", "urine", 280.0))
        assert len([a for a in tracker.alerts if a.subject == "A"]) == 2

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            HydrationTracker("h", Simulator(), ["A"], deficit_alert_ml=100.0)


class TestEventsFromTruth:
    def test_events_derived(self, truth):
        events = fluid_events_from_truth(truth, 2)
        kinds = {e.kind for e in events}
        assert kinds == {"intake", "urine"}
        times = [e.time_s for e in events]
        assert times == sorted(times)

    def test_meals_produce_intake_for_everyone(self, truth):
        events = fluid_events_from_truth(truth, 2)
        drinkers = {e.astro_id for e in events if e.kind == "intake"}
        assert drinkers == set(truth.roster.ids)

    def test_full_day_pipeline_balances(self, truth):
        sim = Simulator()
        tracker = HydrationTracker("hydro", sim, list(truth.roster.ids))
        Network(sim).register(tracker)
        for event in fluid_events_from_truth(truth, 2):
            tracker.ingest(event)
        # Nobody should be wildly out of balance on a normal day.
        for astro in truth.roster.ids:
            assert -2000.0 < tracker.balance(astro) < 4000.0
