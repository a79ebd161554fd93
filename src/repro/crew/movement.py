"""Movement model: from schedule slots to frame-aligned trajectories.

Astronauts walk between rooms along door-constrained paths through the
main hall, and wander within rooms while working (more if energetic,
barely if reserved).  The impaired astronaut A moves slowly, keeps to
the middle of rooms, and "did not approach corners" — realized by a
shrunken wandering extent around the room center (paper Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crew.astronaut import Profile
from repro.crew.schedule import Slot
from repro.crew.tasks import Activity
from repro.habitat.floorplan import OUTSIDE, FloorPlan
from repro.habitat.geometry import Point, Rect
from repro.habitat.rooms import Room

#: Mean seconds between in-room position changes, by activity, for an
#: astronaut of mobility 1.0 (scaled by 1/mobility otherwise).
DWELL_MEAN_S: dict[Activity, float] = {
    Activity.WORK: 20.0,
    Activity.MEAL: 420.0,
    Activity.BRIEFING: 600.0,
    Activity.BREAK: 70.0,
    Activity.PERSONAL: 150.0,
    Activity.EXERCISE: 25.0,
    Activity.RESTROOM: 240.0,
    Activity.CONSOLATION: 600.0,
    Activity.EVA_PREP: 30.0,
    Activity.EVA_POST: 30.0,
    Activity.EVA: 35.0,
}

#: Margin kept from walls when sampling anchors (meters).
WALL_MARGIN_M = 0.5

#: Radius of the shared table area used during group gatherings.
GATHER_RADIUS_M = 1.1


@dataclass
class DayArrays:
    """Mutable per-day output arrays being filled by the movement model."""

    room: np.ndarray
    x: np.ndarray
    y: np.ndarray
    walking: np.ndarray
    activity: np.ndarray

    @classmethod
    def empty(cls, n_frames: int) -> "DayArrays":
        return cls(
            room=np.full(n_frames, OUTSIDE, dtype=np.int8),
            x=np.full(n_frames, np.nan, dtype=np.float32),
            y=np.full(n_frames, np.nan, dtype=np.float32),
            walking=np.zeros(n_frames, dtype=bool),
            activity=np.zeros(n_frames, dtype=np.int8),
        )


def wander_rect(profile: Profile, room_rect: Rect) -> Rect:
    """The sub-rectangle an astronaut wanders within.

    Centered on the room center and scaled by the profile's wander
    extent; impaired A (extent 0.35) thus never reaches corners.
    """
    inner = room_rect.shrink(WALL_MARGIN_M)
    cx, cy = inner.center
    half_w = inner.width / 2.0 * profile.wander_extent
    half_h = inner.height / 2.0 * profile.wander_extent
    return Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h)


@dataclass(frozen=True)
class _Anchors:
    """Where an astronaut of one wander extent settles in one room.

    :class:`MovementModel` builds one per (wander extent, room) and
    reuses it for every anchor drawn there.  Each draw is a scalar
    ``a + (b - a) * rng.random()``, the same number ``rng.uniform(a, b)``
    draws (DESIGN.md §13, the draw-order contract).
    """

    wander: Rect
    #: Group positions are clamped into the room shrunk by half the wall margin.
    gather: Rect
    center: Point
    #: How far a wander target must lie from the current position.
    min_distance: float

    @classmethod
    def of(cls, profile: Profile, room_rect: Rect, min_distance: float = 1.3) -> "_Anchors":
        """The anchors of ``profile`` in ``room_rect``.

        People cross the room to fetch a tool, not shuffle 20 cm; the
        minimum distance is capped by the wanderable area so constrained
        movers (A) are not forced beyond their comfortable extent.
        """
        wander = wander_rect(profile, room_rect)
        cap = 0.7 * float(np.hypot(wander.width, wander.height))
        return cls(wander, room_rect.shrink(WALL_MARGIN_M / 2), room_rect.center,
                   min(min_distance, cap))

    def sample(self, group: bool, rng: np.random.Generator) -> Point:
        """A position to settle at: near the center for a ``group`` activity."""
        if group:
            cx, cy = self.center
            angle = 2.0 * np.pi * rng.random()
            radius = 0.3 + (GATHER_RADIUS_M - 0.3) * rng.random()
            return self.gather.clamp((cx + radius * np.cos(angle), cy + radius * np.sin(angle)))
        w = self.wander
        x = w.x0 + (w.x1 - w.x0) * rng.random()
        return (x, w.y0 + (w.y1 - w.y0) * rng.random())

    def distant(self, group: bool, pos: Point, rng: np.random.Generator,
                tries: int = 5) -> Point:
        """A wander target at least :attr:`min_distance` from ``pos``
        (the last of ``tries`` redraws otherwise)."""
        target = self.sample(group, rng)
        for _ in range(tries):
            if np.hypot(target[0] - pos[0], target[1] - pos[1]) >= self.min_distance:
                break
            target = self.sample(group, rng)
        return target


def sample_anchor(profile: Profile, room_rect: Rect, activity: Activity,
                  rng: np.random.Generator) -> Point:
    """Sample a position to settle at for the current activity."""
    return _Anchors.of(profile, room_rect).sample(activity.is_group, rng)


def _rasterize_walk(a: Point, waypoints: list[Point], speed: float, dt: float) -> np.ndarray:
    """Positions at each frame while walking a -> waypoints at ``speed``."""
    points = [a] + list(waypoints)
    lengths = [float(np.hypot(q[0] - p[0], q[1] - p[1])) for p, q in zip(points, points[1:])]
    total = sum(lengths)
    n_frames = max(1, math.ceil(total / (speed * dt)))
    dist_at = np.minimum(np.arange(1, n_frames + 1) * speed * dt, total)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    seg_idx = np.searchsorted(cum, dist_at, side="right") - 1
    seg_idx = np.clip(seg_idx, 0, len(lengths) - 1)
    seg_len = np.array([length if length > 0 else 1.0 for length in lengths])
    frac = (dist_at - cum[seg_idx]) / seg_len[seg_idx]
    xy = np.array(points, dtype=np.float64)
    return xy[seg_idx] + frac[:, None] * (xy[1:] - xy[:-1])[seg_idx]


def _rasterize_walks(arrays: DayArrays, walks: list[tuple], speed: float, dt: float) -> None:
    """Write a day's in-room walks in one array pass.

    Each walk is ``(first frame, frames, x, y, dx, dy, length)``: a
    straight leg from ``(x, y)`` toward ``(x + dx, y + dy)``.  Frame
    ``k`` (from 1) lies ``min(k * speed * dt, length)`` along it, the
    arithmetic :func:`_rasterize_walk` does for a one-leg walk.
    """
    if not walks:
        return
    first, count, x, y, dx, dy, length = np.array(walks, dtype=np.float64).T
    count = count.astype(np.int64)
    walk = np.repeat(np.arange(len(walks)), count)
    k = np.arange(1, count.sum() + 1) - np.repeat(np.cumsum(count) - count, count)
    frac = np.minimum(k * speed * dt, length[walk]) / np.where(length > 0, length, 1.0)[walk]
    frames = first.astype(np.int64)[walk] + k - 1
    arrays.x[frames] = x[walk] + frac * dx[walk]
    arrays.y[frames] = y[walk] + frac * dy[walk]
    arrays.walking[frames] = True


class MovementModel:
    """Fills a day's trajectory arrays from a slot list."""

    def __init__(self, plan: FloorPlan, dt: float = 1.0):
        self.plan = plan
        self.dt = float(dt)
        self._anchors: dict[tuple[float, int], _Anchors] = {}
        self._eva_area = plan.hangar.shrink(0.5)

    def fill_day(
        self,
        profile: Profile,
        slots: list[Slot],
        t0: float,
        n_frames: int,
        rng: np.random.Generator,
        mobility_factor: float = 1.0,
    ) -> DayArrays:
        """Simulate one astronaut's day.

        ``mobility_factor`` is the scripted per-day modifier (calm day 3,
        post-incident bustle, famine lethargy).
        """
        arrays = DayArrays.empty(n_frames)
        walks: list[tuple] = []
        plan, dt = self.plan, self.dt
        # Wake up in the bedroom.
        bedroom = plan.room("bedroom")
        cur_pos: Point = bedroom.rect.center
        cur_room_name = "bedroom"

        for slot in slots:
            i0 = int(round((slot.t0 - t0) / dt))
            i1 = int(round((slot.t1 - t0) / dt))
            i0, i1 = max(0, i0), min(n_frames, i1)
            if i1 <= i0:
                continue
            if slot.activity == Activity.ABSENT:
                arrays.activity[i0:i1] = int(Activity.ABSENT)
                cur_room_name = ""
                continue
            if slot.room is None:  # EVA on the surface
                self._fill_outside(arrays, profile, i0, i1, rng)
                cur_pos = plan.room("airlock").rect.center
                cur_room_name = "airlock"
                continue
            i = i0
            if slot.room != cur_room_name or not cur_room_name:
                origin = cur_room_name or "airlock"
                anchors = self._anchors_in(profile, plan.room(slot.room))
                anchor = anchors.sample(slot.activity.is_group, rng)
                waypoints = plan.path(origin, slot.room, cur_pos, anchor)
                walk = _rasterize_walk(cur_pos, waypoints[1:], profile.walk_speed, dt)
                n_walk = min(len(walk), i1 - i)
                if n_walk > 0:
                    seg = walk[:n_walk]
                    arrays.x[i:i + n_walk] = seg[:, 0]
                    arrays.y[i:i + n_walk] = seg[:, 1]
                    arrays.room[i:i + n_walk] = plan.locate_many(seg)
                    arrays.walking[i:i + n_walk] = True
                    arrays.activity[i:i + n_walk] = int(Activity.TRANSIT)
                    cur_pos = (float(seg[-1, 0]), float(seg[-1, 1]))
                    i += n_walk
                if n_walk == len(walk):
                    cur_room_name = slot.room
                else:  # slot too short to arrive; stay mid-path
                    cur_room_name = plan.name_of(int(plan.locate(cur_pos)))
            if cur_room_name == slot.room:
                cur_pos = self._wander(
                    arrays, walks, profile, slot, i, i1, cur_pos, rng, mobility_factor
                )
        _rasterize_walks(arrays, walks, profile.walk_speed, dt)
        return arrays

    # -- internals ------------------------------------------------------

    def _anchors_in(self, profile: Profile, room: Room) -> _Anchors:
        key = (profile.wander_extent, room.index)
        anchors = self._anchors.get(key)
        if anchors is None:
            anchors = self._anchors[key] = _Anchors.of(profile, room.rect)
        return anchors

    def _wander(
        self,
        arrays: DayArrays,
        walks: list[tuple],
        profile: Profile,
        slot: Slot,
        i_start: int,
        i_end: int,
        pos: Point,
        rng: np.random.Generator,
        mobility_factor: float,
    ) -> Point:
        """Dwell/move loop inside the slot's room; returns final position.

        Dwells are written here; each walk is only measured (frame count
        and end point) and appended to ``walks`` for
        :func:`_rasterize_walks`.
        """
        dt, speed = self.dt, profile.walk_speed
        room = self.plan.room(slot.room)
        anchors = self._anchors_in(profile, room)
        group = slot.activity.is_group
        dwell_scale = DWELL_MEAN_S.get(slot.activity, 90.0) / max(
            profile.mobility * mobility_factor, 0.05)
        arrays.room[i_start:i_end] = room.index
        arrays.activity[i_start:i_end] = int(slot.activity)
        i = i_start
        while i < i_end:
            dwell_s = min(max(rng.exponential(dwell_scale), 8.0), 900.0)
            j = min(i + max(1, int(round(dwell_s / dt))), i_end)
            arrays.x[i:j] = pos[0]
            arrays.y[i:j] = pos[1]
            i = j
            if i >= i_end:
                break
            target = anchors.distant(group, pos, rng)
            dx, dy = target[0] - pos[0], target[1] - pos[1]
            length = float(np.hypot(dx, dy))
            n_walk = min(max(1, math.ceil(length / (speed * dt))), i_end - i)
            frac = min(n_walk * speed * dt, length) / (length if length > 0 else 1.0)
            walks.append((i, n_walk, pos[0], pos[1], dx, dy, length))
            pos = (pos[0] + frac * dx, pos[1] + frac * dy)
            i += n_walk
        return pos

    def _fill_outside(self, arrays: DayArrays, profile: Profile, i0: int, i1: int,
                      rng: np.random.Generator) -> None:
        """Fill an EVA window: on the regolith, outside badge coverage."""
        area = self._eva_area
        arrays.room[i0:i1] = OUTSIDE
        arrays.activity[i0:i1] = int(Activity.EVA)
        i = i0
        pos = self.plan.hangar.center
        while i < i1:
            n_dwell = max(1, int(rng.exponential(DWELL_MEAN_S[Activity.EVA])))
            j = min(i + n_dwell, i1)
            arrays.x[i:j] = pos[0]
            arrays.y[i:j] = pos[1]
            i = j
            if i >= i1:
                break
            x = area.x0 + (area.x1 - area.x0) * rng.random()
            pos = (x, area.y0 + (area.y1 - area.y0) * rng.random())
