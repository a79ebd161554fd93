"""Tests for mission-level behavior orchestration (uses session truth)."""

import numpy as np
import pytest

from repro.core.config import MissionConfig
from repro.core.units import parse_hhmm
from repro.crew.behavior import simulate_mission
from repro.crew.tasks import Activity


class TestMissionTruth:
    def test_all_traces_present(self, truth, mission_cfg):
        for astro in truth.roster.ids:
            for day in range(1, mission_cfg.days + 1):
                trace = truth.trace(astro, day)
                assert trace.n_frames == mission_cfg.frames_per_day

    def test_schedules_recorded(self, truth, mission_cfg):
        assert sorted(truth.schedules) == list(range(1, mission_cfg.days + 1))

    def test_death_event_recorded(self, truth, mission_cfg):
        events = [e for e in truth.events if e.kind == "death"]
        assert len(events) == 1
        assert events[0].day == mission_cfg.events.death_day
        assert events[0].info["astronaut"] == "C"

    def test_c_absent_after_death(self, truth, mission_cfg):
        day = mission_cfg.events.death_day + 1
        trace = truth.trace("C", day)
        assert not trace.present().any()
        assert not trace.speaking.any()

    def test_c_present_before_death(self, truth, mission_cfg):
        trace = truth.trace("C", mission_cfg.events.death_day - 1)
        assert trace.present().mean() > 0.7

    def test_c_vanishes_at_death_time(self, truth, mission_cfg):
        trace = truth.trace("C", mission_cfg.events.death_day)
        death_idx = int((parse_hhmm(mission_cfg.events.death_time) - trace.t0) / trace.dt)
        assert not trace.present()[death_idx:].any()

    def test_consolation_gathers_survivors_in_kitchen(self, truth, mission_cfg):
        day = mission_cfg.events.death_day
        kitchen = truth.plan.index_of("kitchen")
        conso_idx = int(
            (parse_hhmm(mission_cfg.events.consolation_time) + 300 - truth.trace("A", day).t0)
        )
        for astro in truth.roster.ids:
            if astro == "C":
                continue
            assert truth.trace(astro, day).room[conso_idx] == kitchen

    def test_restroom_visits_happen(self, truth):
        trace = truth.trace("D", 2)
        assert (trace.activity == int(Activity.RESTROOM)).any()

    def test_commander_visits_other_rooms(self, truth):
        slots = truth.schedules[2].of("B")
        assert any(s.label == "supervision" for s in slots)

    def test_deterministic(self, mission_cfg, truth):
        again = simulate_mission(mission_cfg)
        a = truth.trace("F", 3)
        b = again.trace("F", 3)
        np.testing.assert_array_equal(a.room, b.room)
        np.testing.assert_array_equal(a.speaking, b.speaking)

    def test_speaking_only_when_present(self, truth, mission_cfg):
        for astro in truth.roster.ids:
            for day in (2, 3):
                trace = truth.trace(astro, day)
                assert not (trace.speaking & ~trace.present()).any()

    def test_loudness_set_iff_speaking(self, truth):
        trace = truth.trace("B", 2)
        assert (trace.loudness[trace.speaking] > 0).all()
        assert (trace.loudness[~trace.speaking] == 0).all()

    def test_machine_speech_only_near_impaired(self, truth, mission_cfg):
        for day in range(2, mission_cfg.days + 1):
            for astro in truth.roster.ids:
                trace = truth.trace(astro, day)
                if astro != "A":
                    assert not trace.machine_speech.any()


class TestScaling:
    def test_small_crew_mission(self):
        cfg = MissionConfig(days=2, crew_size=3, seed=5, events=None)
        truth = simulate_mission(cfg)
        assert len(truth.traces) == 6  # 3 crew x 2 days

    def test_coarse_frames(self):
        cfg = MissionConfig(days=2, frame_dt=5.0, seed=5, events=None)
        truth = simulate_mission(cfg)
        assert truth.trace("A", 1).n_frames == cfg.frames_per_day
