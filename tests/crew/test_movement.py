"""Tests for the movement model."""

import numpy as np
import pytest

from repro.core.config import MissionConfig
from repro.crew.behavior import simulate_mission
from repro.crew.movement import (
    DWELL_MEAN_S,
    DayArrays,
    MovementModel,
    _Anchors,
    sample_anchor,
    wander_rect,
)
from repro.crew.roster import icares_roster
from repro.crew.schedule import build_day_schedule
from repro.crew.tasks import Activity
from repro.habitat.floorplan import OUTSIDE, lunares_floorplan


@pytest.fixture(scope="module")
def plan():
    return lunares_floorplan()


@pytest.fixture(scope="module")
def roster():
    return icares_roster()


@pytest.fixture(scope="module")
def filled(plan, roster):
    cfg = MissionConfig(days=14)
    rng = np.random.default_rng(0)
    sched = build_day_schedule(cfg, roster, day=2, rng=rng)
    model = MovementModel(plan, dt=cfg.frame_dt)
    return {
        astro: model.fill_day(
            roster.profile(astro), sched.of(astro), cfg.daytime_start_s,
            cfg.frames_per_day, np.random.default_rng(hash(astro) % 2**32),
        )
        for astro in roster.ids
    }, sched, cfg


class TestFillDay:
    def test_positions_inside_rooms(self, filled, plan):
        arrays_by_astro, _, _ = filled
        for arrays in arrays_by_astro.values():
            inside = arrays.room >= 0
            pts = np.column_stack([arrays.x[inside], arrays.y[inside]]).astype(np.float64)
            located = plan.locate_many(pts)
            assert (located == arrays.room[inside]).mean() > 0.999

    def test_no_gaps_when_present(self, filled):
        arrays_by_astro, _, _ = filled
        for arrays in arrays_by_astro.values():
            present = arrays.room >= 0
            assert not np.isnan(arrays.x[present]).any()

    def test_walking_implies_movement(self, filled):
        arrays_by_astro, _, _ = filled
        arrays = arrays_by_astro["C"]
        moving = arrays.walking[1:] & arrays.walking[:-1] & (arrays.room[1:] >= 0)
        dx = np.abs(np.diff(arrays.x))[moving[: len(arrays.x) - 1]]
        assert np.nanmean(dx) > 0.1

    def test_follows_schedule_rooms(self, filled, plan):
        arrays_by_astro, sched, cfg = filled
        arrays = arrays_by_astro["E"]
        t0 = cfg.daytime_start_s
        hits = total = 0
        for slot in sched.of("E"):
            if slot.room is None or slot.duration < 600:
                continue
            mid = int((slot.t0 + slot.duration / 2 - t0) / cfg.frame_dt)
            total += 1
            if arrays.room[mid] == plan.index_of(slot.room):
                hits += 1
        assert hits / total > 0.9  # transit at slot starts tolerated

    def test_eva_outside(self, plan, roster):
        cfg = MissionConfig(days=14)
        sched = build_day_schedule(cfg, roster, day=3, rng=np.random.default_rng(1))
        eva_astro = next(
            a for a in roster.ids
            if any(s.activity == Activity.EVA for s in sched.of(a))
        )
        model = MovementModel(plan)
        arrays = model.fill_day(
            roster.profile(eva_astro), sched.of(eva_astro),
            cfg.daytime_start_s, cfg.frames_per_day, np.random.default_rng(2),
        )
        eva_frames = arrays.activity == int(Activity.EVA)
        assert eva_frames.any()
        assert (arrays.room[eva_frames] == OUTSIDE).all()

    def test_mobility_scales_walking(self, filled):
        arrays_by_astro, _, _ = filled
        assert arrays_by_astro["C"].walking.mean() > 1.5 * arrays_by_astro["A"].walking.mean()


class TestWalkPass:
    """The per-day pass that rasterizes every in-room walk of a day."""

    def test_in_room_steps_at_most_walk_speed(self, filled, roster):
        arrays_by_astro, _, cfg = filled
        n_steps = 0
        for astro, arrays in arrays_by_astro.items():
            in_room = arrays.walking & (arrays.activity != int(Activity.TRANSIT))
            pairs = in_room[1:] & in_room[:-1] & (arrays.room[1:] == arrays.room[:-1])
            x, y = arrays.x.astype(np.float64), arrays.y.astype(np.float64)
            step = np.hypot(np.diff(x), np.diff(y))[pairs]
            max_step = roster.profile(astro).walk_speed * cfg.frame_dt
            # Each float32 coordinate is off by at most half an ulp.
            rounding = 4 * np.finfo(np.float32).eps * np.nanmax(np.abs(np.r_[x, y]))
            assert (step <= max_step + rounding).all(), astro
            # Walks longer than two frames reach the bound.
            assert step.max() == pytest.approx(max_step, abs=rounding), astro
            n_steps += step.size
        assert n_steps > 1000

    def test_dwell_starts_where_walk_ended(self, filled):
        arrays_by_astro, _, _ = filled
        n_arrivals = 0
        for astro, arrays in arrays_by_astro.items():
            t = np.flatnonzero(arrays.walking[:-1] & ~arrays.walking[1:]) + 1
            t = t[(arrays.room[t] >= 0) & (arrays.room[t - 1] >= 0)]
            assert (arrays.x[t] == arrays.x[t - 1]).all(), astro
            assert (arrays.y[t] == arrays.y[t - 1]).all(), astro
            n_arrivals += t.size
        assert n_arrivals > 100


class TestDeferredWrites:
    """``fill_day`` writes every walk, and the rooms of the walks through
    the doors, after the day's slot loop.  That equals writing them in
    place only if no later write of the day touches their frames: each
    slot's frames must follow the previous slot's."""

    def test_slots_share_their_boundaries(self, truth):
        tiny = simulate_mission(MissionConfig(
            days=2, seed=3, daytime_hours=2.0, frame_dt=5.0, events=None))
        pairs = 0
        for mission in (truth, tiny):
            for sched in mission.schedules.values():
                for slots in sched.slots.values():
                    for prev, cur in zip(slots, slots[1:]):
                        # The same float, so both round to the same frame.
                        assert prev.t1 == cur.t0, (prev, cur)
                        pairs += 1
        assert pairs > 1000


class TestMinimumDistance:
    """``_Anchors.far`` decides ``np.hypot(dx, dy) >= min_distance`` from
    the squared length away from the threshold; a flipped answer would
    move every later draw of the astronaut-day."""

    @pytest.mark.parametrize("min_distance", [1.3, 0.6, 0.0, 1e-200])
    def test_far_agrees_with_hypot(self, plan, roster, min_distance):
        rng = np.random.default_rng(7)
        for profile in roster.profiles:
            for room in plan.rooms:
                anchors = _Anchors.of(profile, room.rect, min_distance)
                m = anchors.min_distance
                dx, dy = rng.uniform(-20.0, 20.0, (2, 200))
                angle = rng.uniform(0.0, 2.0 * np.pi, 200)
                scale = m * (1.0 + rng.choice(
                    [0.0, 1e-16, -1e-16, 3e-16, -3e-16, 1e-12, -1e-12, 1e-9, -1e-9,
                     2e-9, -2e-9], 200))
                dx = np.r_[dx, scale * np.cos(angle), m, 0.0]
                dy = np.r_[dy, scale * np.sin(angle), 0.0, 0.0]
                for a, b in zip(dx.tolist(), dy.tolist()):
                    assert anchors.far(a, b) == (np.hypot(a, b) >= m), (a, b, m)


def _mean_eva_dwell_s(frame_dt: float) -> float:
    """Mean seconds an EVA astronaut stays at one spot (3-day mission, seed 5)."""
    truth = simulate_mission(MissionConfig(days=3, seed=5, frame_dt=frame_dt))
    frames = dwells = 0
    for trace in truth.traces.values():
        eva = trace.activity == int(Activity.EVA)
        stay = eva[:-1] & (trace.x[1:] == trace.x[:-1]) & (trace.y[1:] == trace.y[:-1])
        frames += int(eva.sum())
        dwells += int((eva & ~np.r_[False, stay]).sum())
    return frames / dwells * frame_dt


class TestEvaDwell:
    @pytest.mark.xfail(strict=True, reason=(
        "EVA dwells are drawn as int(rng.exponential(35.0)) frames, not seconds / "
        "frame_dt; the fix changes truth bytes, so it waits for the next "
        "SCHEMA_VERSION bump (ROADMAP open items)"))
    def test_dwell_is_seconds_whatever_the_frame_rate(self):
        """An EVA dwell lasts DWELL_MEAN_S[EVA] (35 s) on average, less the
        dwells cut by the window's end, at every frame rate.  Today it is
        31 s at 1 s frames and 134.5 s at 5 s frames."""
        at_1s, at_5s = _mean_eva_dwell_s(1.0), _mean_eva_dwell_s(5.0)
        assert at_1s == pytest.approx(DWELL_MEAN_S[Activity.EVA], rel=0.25)
        assert at_5s == pytest.approx(at_1s, rel=0.25)


class TestWanderRect:
    def test_impaired_extent_small(self, plan, roster):
        room = plan.room("biolab").rect
        a_rect = wander_rect(roster.profile("A"), room)
        c_rect = wander_rect(roster.profile("C"), room)
        assert a_rect.area < 0.3 * c_rect.area

    def test_centered(self, plan, roster):
        room = plan.room("office").rect
        inner = wander_rect(roster.profile("A"), room)
        assert inner.center == pytest.approx(room.shrink(0.5).center)

    def test_anchor_inside_room(self, plan, roster, rng):
        room = plan.room("kitchen").rect
        for _ in range(50):
            p = sample_anchor(roster.profile("D"), room, Activity.WORK, rng)
            assert room.contains(p)

    def test_group_anchor_near_center(self, plan, roster, rng):
        room = plan.room("kitchen").rect
        cx, cy = room.center
        for _ in range(50):
            p = sample_anchor(roster.profile("D"), room, Activity.MEAL, rng)
            assert np.hypot(p[0] - cx, p[1] - cy) <= 1.2


class TestDayArrays:
    def test_empty_initial_state(self):
        arrays = DayArrays.empty(10)
        assert (arrays.room == OUTSIDE).all()
        assert np.isnan(arrays.x).all()
        assert not arrays.walking.any()
