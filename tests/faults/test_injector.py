"""Tests for the fault injector and reliability reporting."""

import pytest

from repro.core.config import MissionConfig
from repro.core.engine import Simulator
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.report import availability_from_downtime
from repro.faults.scenario import run_support_scenario
from repro.support.bus import Network, Node
from repro.support.mission_control import EarthLink


@pytest.fixture()
def stack():
    sim = Simulator()
    network = Network(sim, default_latency_s=0.1)
    for name in ("x", "y"):
        network.register(Node(name, sim))
    return sim, network


class TestCrashWindows:
    def test_crash_recovers_after_duration(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=5.0, action="crash", target="x", duration_s=10.0),
        ))
        sim.run_until(6.0)
        assert network.is_down("x")
        sim.run()
        assert not network.is_down("x")
        assert injector.downtime["x"] == [(5.0, 15.0)]

    def test_overlapping_crashes_collapse(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=5.0, action="crash", target="x", duration_s=10.0),
            FaultEvent(time_s=8.0, action="crash", target="x", duration_s=20.0),
        ))
        sim.run()
        # Second crash found the node already down; one interval, first
        # recovery wins.
        assert injector.downtime["x"] == [(5.0, 15.0)]

    def test_persistent_crash_closed_at_horizon(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=5.0, action="crash", target="x"),
        ))
        sim.run()
        assert injector.downtime["x"] == [(5.0, None)]
        assert injector.closed_downtime(100.0)["x"] == [(5.0, 100.0)]

    def test_unknown_node_skipped(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=1.0, action="crash", target="ghost", duration_s=5.0),
        ))
        sim.run()
        assert injector.skipped == 1
        assert injector.injected == 0


class TestLinkAndLossy:
    def test_link_flap_heals(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=1.0, action="link-down", target="x<->y", duration_s=4.0),
        ))
        x = network.node("x")
        sim.schedule_at(2.0, x.send, "y", "during")
        sim.schedule_at(6.0, x.send, "y", "after")
        sim.run()
        assert network.dropped == 1
        assert network.delivered == 1

    def test_lossy_window_restores_base_prob(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=1.0, action="lossy", duration_s=5.0, value=0.5),
        ))
        sim.run_until(2.0)
        assert network.loss_prob == 0.5
        sim.run()
        assert network.loss_prob == 0.0

    def test_nested_lossy_windows(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=1.0, action="lossy", duration_s=10.0, value=0.3),
            FaultEvent(time_s=2.0, action="lossy", duration_s=2.0, value=0.6),
        ))
        sim.run_until(3.0)
        assert network.loss_prob == 0.6
        sim.run_until(6.0)
        assert network.loss_prob > 0.0  # outer window still open
        sim.run()
        assert network.loss_prob == 0.0

    def test_blackout_without_earth_link_skipped(self, stack):
        sim, network = stack
        injector = FaultInjector(network)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=1.0, action="blackout", duration_s=5.0),
        ))
        sim.run()
        assert injector.skipped == 1

    def test_blackout_partitions_earth_link(self):
        sim = Simulator()
        network = Network(sim, default_latency_s=0.1)
        link = EarthLink.build(network, sim, one_way_delay_s=10.0)
        injector = FaultInjector(network, earth_link=link)
        injector.schedule(sim, FaultPlan.build(
            FaultEvent(time_s=1.0, action="blackout", duration_s=50.0),
        ))
        sim.schedule_at(5.0, link.mission_control.issue, "t", "a")   # dropped
        sim.schedule_at(60.0, link.mission_control.issue, "t", "b")  # arrives
        sim.run()
        assert len(link.habitat_agent.applied_commands) == 1
        assert link.habitat_agent.applied_commands[0].action == "b"


class TestAvailability:
    def test_availability_and_mttr(self):
        downtime = {"x": [(10.0, 30.0), (50.0, 60.0)]}
        availability, mttr, n, censored = availability_from_downtime(
            downtime, ["x", "y"], 100.0)
        assert availability["x"] == pytest.approx(0.7)
        assert availability["y"] == 1.0
        assert mttr == pytest.approx(15.0)
        assert n == 2
        assert censored == 0

    def test_no_outages_no_mttr(self):
        availability, mttr, n, censored = availability_from_downtime({}, ["x"], 100.0)
        assert availability == {"x": 1.0}
        assert mttr is None and n == 0 and censored == 0

    def test_open_outage_counts_downtime_but_not_mttr(self):
        """Right-censoring: an outage still open at the horizon charges
        availability for its observed downtime without polluting MTTR."""
        downtime = {"x": [(10.0, 20.0), (80.0, None)]}
        availability, mttr, n, censored = availability_from_downtime(
            downtime, ["x"], 100.0)
        assert availability["x"] == pytest.approx(0.7)  # 10 closed + 20 open
        assert mttr == pytest.approx(10.0)              # closed outage only
        assert n == 1
        assert censored == 1

    def test_recovery_past_horizon_is_censored(self):
        """A repair observed only during the post-horizon drain is not a
        within-horizon repair; downtime is clamped at the horizon."""
        downtime = {"x": [(90.0, 130.0)]}
        availability, mttr, n, censored = availability_from_downtime(
            downtime, ["x"], 100.0)
        assert availability["x"] == pytest.approx(0.9)
        assert mttr is None
        assert n == 0
        assert censored == 1

    def test_all_censored_availability_floor(self):
        downtime = {"x": [(0.0, None)]}
        availability, mttr, n, censored = availability_from_downtime(
            downtime, ["x"], 100.0)
        assert availability["x"] == 0.0
        assert mttr is None and n == 0 and censored == 1


class TestScenario:
    def test_scenario_deterministic_and_drained(self):
        cfg = MissionConfig(days=2, seed=5)
        plan = FaultCampaign.reference(days=2, seed=9).generate()
        one = run_support_scenario(cfg, plan)
        two = run_support_scenario(cfg, plan)
        assert one.to_dict() == two.to_dict()
        assert one.pending == 0
        assert one.bus_sent == one.bus_delivered + one.bus_dropped

    def test_crash_straddling_horizon_drains(self):
        """svc-a goes down an hour before the horizon and recovers an hour
        after it, during the drain: the run ends, the outage censored."""
        cfg = MissionConfig(days=2, seed=5)
        plan = FaultPlan.build(FaultEvent(
            time_s=2 * 86400.0 - 3600.0, action="crash", target="svc-a",
            duration_s=7200.0))
        report = run_support_scenario(cfg, plan)
        assert report.pending == 0
        assert report.bus_sent == report.bus_delivered + report.bus_dropped
        assert (report.n_outages, report.n_censored_outages) == (0, 1)
        assert report.availability["svc-a"] == pytest.approx(1.0 - 3600.0 / (2 * 86400.0))

    def test_scenario_report_text(self):
        cfg = MissionConfig(days=2, seed=5)
        plan = FaultPlan.build(
            FaultEvent(time_s=3600.0, action="crash", target="svc-a", duration_s=1800.0),
        )
        report = run_support_scenario(cfg, plan)
        text = report.to_text()
        assert "availability" in text
        assert "delivery[submit]" in text
        assert report.availability["svc-a"] < 1.0
        assert report.mttr_s == pytest.approx(1800.0)
