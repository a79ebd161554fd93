"""Tests for the Lunares floor plan."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.habitat.floorplan import OUTSIDE, lunares_floorplan
from repro.habitat.rooms import MAIN_HALL, ROOM_NAMES


@pytest.fixture(scope="module")
def plan():
    return lunares_floorplan()


class TestLayout:
    def test_room_set_matches_paper_fig2(self, plan):
        names = {room.name for room in plan.rooms}
        assert names == set(ROOM_NAMES) | {MAIN_HALL}

    def test_index_order(self, plan):
        for i, name in enumerate(ROOM_NAMES):
            assert plan.index_of(name) == i
        assert plan.main_index == len(ROOM_NAMES)

    def test_rooms_do_not_overlap(self, plan):
        rooms = list(plan.rooms)
        for i, a in enumerate(rooms):
            for b in rooms[i + 1:]:
                assert not a.rect.overlaps(b.rect), (a.name, b.name)

    def test_every_room_has_hall_door(self, plan):
        for room in plan.rooms:
            if room.name == MAIN_HALL:
                continue
            assert MAIN_HALL in room.door_to(MAIN_HALL).connects

    def test_restroom_is_badge_prohibited(self, plan):
        assert plan.room("restroom").badge_prohibited
        assert not plan.room("kitchen").badge_prohibited

    def test_hangar_outside_bounds(self, plan):
        assert plan.locate(plan.hangar.center) == OUTSIDE

    def test_invalid_name_raises(self, plan):
        with pytest.raises(ConfigError):
            plan.room("garage")

    def test_name_of_outside(self, plan):
        assert plan.name_of(OUTSIDE) == "outside"


class TestLocate:
    def test_room_centers(self, plan):
        for room in plan.rooms:
            assert plan.locate(room.rect.center) == room.index

    def test_locate_many_matches_scalar(self, plan):
        rng = np.random.default_rng(0)
        pts = plan.bounds.sample(rng, 200)
        vectorized = plan.locate_many(pts)
        scalar = [plan.locate((float(x), float(y))) for x, y in pts]
        np.testing.assert_array_equal(vectorized, scalar)

    def test_nan_is_outside(self, plan):
        out = plan.locate_many(np.array([[np.nan, 1.0]]))
        assert out[0] == OUTSIDE

    def test_peripheral_wins_shared_boundary(self, plan):
        kitchen = plan.room("kitchen")
        door = kitchen.doors[0].position
        assert plan.locate(door) == kitchen.index


class TestTopology:
    def test_wall_matrix_symmetric(self, plan):
        walls = plan.wall_matrix()
        np.testing.assert_array_equal(walls, walls.T)

    def test_wall_matrix_values(self, plan):
        walls = plan.wall_matrix()
        k = plan.index_of("kitchen")
        m = plan.main_index
        b = plan.index_of("bedroom")
        assert walls[k, k] == 0
        assert walls[k, m] == 1
        assert walls[k, b] == 2  # peripheral pairs cross two walls

    def test_path_same_room_direct(self, plan):
        waypoints = plan.path("kitchen", "kitchen", (9.0, 5.0), (10.0, 6.0))
        assert waypoints == [(9.0, 5.0), (10.0, 6.0)]

    def test_path_crosses_hall(self, plan):
        waypoints = plan.path(
            "office", "kitchen",
            plan.room("office").rect.center, plan.room("kitchen").rect.center,
        )
        rooms_on_path = {plan.locate(p) for p in waypoints}
        assert plan.main_index in rooms_on_path

    def test_path_waypoints_stay_inside(self, plan):
        waypoints = plan.path(
            "bedroom", "airlock",
            plan.room("bedroom").rect.center, plan.room("airlock").rect.center,
        )
        for p in waypoints:
            assert plan.locate(p) != OUTSIDE


class TestValidation:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(ConfigError):
            lunares_floorplan(room_w=-1.0)
