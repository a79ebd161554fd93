"""Tests for scripted fault plans."""

import pytest

from repro.core.config import MissionConfig
from repro.core.errors import ConfigError
from repro.core.units import DAY, HOUR
from repro.faults.plan import BUS_ACTIONS, SENSING_ACTIONS, FaultEvent, FaultPlan


class TestEventValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=0.0, action="meteor-strike").validate()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=-1.0, action="lossy", value=0.1).validate()

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=0.0, action="blackout", duration_s=0.0).validate()

    def test_crash_needs_target(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=0.0, action="crash").validate()

    def test_lossy_value_must_be_probability(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=0.0, action="lossy", value=1.5).validate()

    def test_sdcard_cap_needs_positive_bytes(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=0.0, action="sdcard-cap", target="1").validate()

    def test_end_s(self):
        event = FaultEvent(time_s=10.0, action="blackout", duration_s=5.0)
        assert event.end_s == 15.0
        assert FaultEvent(time_s=10.0, action="crash", target="n").end_s is None


class TestTargetParsing:
    def test_bidirectional_link(self):
        event = FaultEvent(time_s=0.0, action="link-down", target="a<->b")
        assert event.link_endpoints() == ("a", "b", True)

    def test_directed_link(self):
        event = FaultEvent(time_s=0.0, action="link-down", target="a->b")
        assert event.link_endpoints() == ("a", "b", False)

    def test_bad_link_target(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=0.0, action="link-down", target="ab").link_endpoints()

    def test_beacon_ids(self):
        event = FaultEvent(time_s=0.0, action="beacon-outage", target="3,7,12")
        assert event.beacon_ids() == (3, 7, 12)

    def test_bad_beacon_target(self):
        with pytest.raises(ConfigError):
            FaultEvent(time_s=0.0, action="beacon-outage", target="x").beacon_ids()

    def test_badge_id(self):
        assert FaultEvent(time_s=0.0, action="badge-battery", target="4").badge_id() == 4


class TestPlan:
    def test_build_sorts_by_time(self):
        plan = FaultPlan.build(
            FaultEvent(time_s=20.0, action="blackout"),
            FaultEvent(time_s=10.0, action="crash", target="n"),
        )
        assert [e.time_s for e in plan.events] == [10.0, 20.0]

    def test_build_validates(self):
        with pytest.raises(ConfigError):
            FaultPlan.build(FaultEvent(time_s=0.0, action="nope"))

    def test_bus_sensing_split_is_a_partition(self):
        assert not (BUS_ACTIONS & SENSING_ACTIONS)
        plan = FaultPlan.build(
            FaultEvent(time_s=0.0, action="crash", target="n", duration_s=1.0),
            FaultEvent(time_s=1.0, action="beacon-outage", target="1", duration_s=1.0),
        )
        assert len(plan.bus_events()) == 1
        assert len(plan.sensing_events()) == 1

    def test_merged(self):
        one = FaultPlan.build(FaultEvent(time_s=5.0, action="blackout"))
        two = FaultPlan.build(FaultEvent(time_s=1.0, action="crash", target="n"))
        merged = one.merged(two)
        assert len(merged.events) == 2
        assert merged.events[0].time_s == 1.0

    def test_empty_plan(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan.build(FaultEvent(time_s=0.0, action="blackout")).is_empty()

    def test_plan_is_hashable(self):
        plan = FaultPlan.build(FaultEvent(time_s=0.0, action="blackout"))
        assert hash(plan) == hash(FaultPlan.build(FaultEvent(time_s=0.0, action="blackout")))


class TestSensingQueries:
    START = 7 * HOUR          # 07:00 daytime start
    DAYTIME = 14 * HOUR

    def test_dead_beacons_overlapping_day(self):
        plan = FaultPlan.build(FaultEvent(
            time_s=1 * DAY + self.START + HOUR,   # day 2, 08:00
            action="beacon-outage", target="3,5", duration_s=2 * HOUR,
        ))
        assert plan.dead_beacons_on_day(2, self.START, self.DAYTIME) == {3, 5}
        assert plan.dead_beacons_on_day(1, self.START, self.DAYTIME) == frozenset()
        assert plan.dead_beacons_on_day(3, self.START, self.DAYTIME) == frozenset()

    def test_persistent_outage_spans_remaining_days(self):
        plan = FaultPlan.build(FaultEvent(
            time_s=1 * DAY, action="beacon-outage", target="0",
        ))
        for day in (2, 3, 10):
            assert plan.dead_beacons_on_day(day, self.START, self.DAYTIME) == {0}

    def test_battery_cut_frame_within_day(self):
        # Day 2, one hour into daytime, 1-second frames.
        plan = FaultPlan.build(FaultEvent(
            time_s=1 * DAY + self.START + HOUR, action="badge-battery", target="4",
        ))
        n = int(self.DAYTIME)
        assert plan.battery_cut_frame(4, 2, self.START, n, 1.0) == int(HOUR)
        assert plan.battery_cut_frame(4, 3, self.START, n, 1.0) is None
        assert plan.battery_cut_frame(5, 2, self.START, n, 1.0) is None

    def test_battery_before_daytime_kills_whole_day(self):
        plan = FaultPlan.build(FaultEvent(
            time_s=1 * DAY + HOUR, action="badge-battery", target="4",  # 01:00
        ))
        assert plan.battery_cut_frame(4, 2, self.START, 100, 1.0) == 0

    def test_sdcard_caps_and_faulted_badges(self):
        plan = FaultPlan.build(
            FaultEvent(time_s=0.0, action="sdcard-cap", target="2", value=1e6),
            FaultEvent(time_s=5.0, action="badge-battery", target="3"),
        )
        assert plan.sdcard_caps() == {2: 1e6}
        assert {event.badge_id() for event in plan.sensing_events()} == {2, 3}


class TestMissionConfigIntegration:
    def test_config_accepts_plan(self):
        plan = FaultPlan.build(FaultEvent(time_s=DAY, action="blackout", duration_s=HOUR))
        cfg = MissionConfig(days=3, fault_plan=plan)
        assert cfg.fault_plan is plan

    def test_config_rejects_event_beyond_mission(self):
        plan = FaultPlan.build(FaultEvent(time_s=5 * DAY, action="blackout"))
        with pytest.raises(ConfigError):
            MissionConfig(days=3, fault_plan=plan)

    def test_config_stays_hashable(self):
        plan = FaultPlan.build(FaultEvent(time_s=0.0, action="blackout"))
        assert isinstance(hash(MissionConfig(days=2, fault_plan=plan)), int)


class TestExecFaults:
    def test_worker_crash_needs_no_target(self):
        FaultEvent(time_s=0.0, action="worker-crash").validate()

    def test_worker_crash_days_maps_time_to_day(self):
        plan = FaultPlan.build(
            FaultEvent(time_s=0.0, action="worker-crash"),          # day 1
            FaultEvent(time_s=1.5 * DAY, action="worker-crash"),    # day 2
            FaultEvent(time_s=2.999 * DAY, action="worker-crash"),  # day 3
        )
        assert plan.worker_crash_days() == frozenset({1, 2, 3})
        assert len(plan.exec_events()) == 3

    def test_exec_events_excluded_from_bus_and_sensing(self):
        plan = FaultPlan.build(
            FaultEvent(time_s=DAY, action="worker-crash"),
            FaultEvent(time_s=DAY, action="blackout", duration_s=HOUR),
            FaultEvent(time_s=DAY, action="badge-battery", target="1"),
        )
        assert {e.action for e in plan.bus_events()} == {"blackout"}
        assert {e.action for e in plan.sensing_events()} == {"badge-battery"}
        assert {e.action for e in plan.exec_events()} == {"worker-crash"}
