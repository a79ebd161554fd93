"""Tests for badge-astronaut assignment and its anomalies."""

import pytest

from repro.badges.assignment import BadgeAssignment
from repro.core.config import MissionConfig, ScriptedEventsConfig
from repro.core.errors import ConfigError
from repro.crew.roster import icares_roster


@pytest.fixture(scope="module")
def assignment():
    cfg = MissionConfig(days=14)
    return BadgeAssignment(cfg=cfg, roster=icares_roster())


class TestAssumed:
    def test_one_badge_per_astronaut(self, assignment):
        assumed = assignment.assumed()
        assert assumed == {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}

    def test_reference_id(self, assignment):
        assert assignment.reference_id == 12


class TestActual:
    def test_normal_day_matches_assumed(self, assignment):
        assert assignment.actual(2) == assignment.assumed()

    def test_swap_day(self, assignment):
        day = assignment.cfg.events.badge_swap_day
        actual = assignment.actual(day)
        assert actual[0] == "B" and actual[1] == "A"

    def test_swap_only_one_day(self, assignment):
        day = assignment.cfg.events.badge_swap_day
        assert assignment.actual(day + 1)[0] == "A"

    def test_c_badge_idle_after_death(self, assignment):
        death = assignment.cfg.events.death_day
        reuse = assignment.cfg.events.badge_reuse_day
        for day in range(death + 1, reuse):
            assert 2 not in assignment.actual(day)

    def test_f_reuses_c_badge(self, assignment):
        reuse = assignment.cfg.events.badge_reuse_day
        actual = assignment.actual(reuse)
        assert actual[2] == "F"
        assert 5 not in actual  # F's own badge retired

    def test_invalid_day(self, assignment):
        with pytest.raises(ConfigError):
            assignment.actual(0)

    def test_no_events_no_anomalies(self):
        cfg = MissionConfig(days=14, events=None)
        assignment = BadgeAssignment(cfg=cfg, roster=icares_roster())
        for day in cfg.instrumented_days:
            assert assignment.actual(day) == assignment.assumed()


class TestDerived:
    def test_wearer_days(self, assignment):
        death = assignment.cfg.events.death_day
        reuse = assignment.cfg.events.badge_reuse_day
        assert assignment.actual(death)[2] == "C"  # C's badge
        assert 2 not in assignment.actual(death + 1)
        assert assignment.actual(reuse)[2] == "F"

    def test_mislabeled_days(self, assignment):
        assumed = assignment.assumed()

        def mislabeled(day: int) -> dict[int, str]:
            return {badge: astro for badge, astro in assignment.actual(day).items()
                    if assumed.get(badge) != astro}

        swap = assignment.cfg.events.badge_swap_day
        reuse = assignment.cfg.events.badge_reuse_day
        assert mislabeled(swap) == {0: "B", 1: "A"}
        assert all(mislabeled(day) for day in range(reuse, 15))

    def test_custom_event_days(self):
        events = ScriptedEventsConfig(death_day=3, badge_swap_day=2, badge_reuse_day=5)
        cfg = MissionConfig(days=7, events=events)
        assignment = BadgeAssignment(cfg=cfg, roster=icares_roster())
        assert assignment.actual(2)[0] == "B"
        assert assignment.actual(5)[2] == "F"
