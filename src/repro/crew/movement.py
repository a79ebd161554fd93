"""Movement model: from schedule slots to frame-aligned trajectories.

Astronauts walk between rooms along door-constrained paths through the
main hall, and wander within rooms while working (more if energetic,
barely if reserved).  The impaired astronaut A moves slowly, keeps to
the middle of rooms, and "did not approach corners" — realized by a
shrunken wandering extent around the room center (paper Fig. 3).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

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
    #: Squared lengths below / above which ``np.hypot`` is surely under /
    #: at least :attr:`min_distance` (see :meth:`far`).
    near2: float
    far2: float

    @classmethod
    def of(cls, profile: Profile, room_rect: Rect, min_distance: float = 1.3) -> "_Anchors":
        """The anchors of ``profile`` in ``room_rect``.

        People cross the room to fetch a tool, not shuffle 20 cm; the
        minimum distance is capped by the wanderable area so constrained
        movers (A) are not forced beyond their comfortable extent.
        """
        wander = wander_rect(profile, room_rect)
        cap = 0.7 * float(np.hypot(wander.width, wander.height))
        m = min(min_distance, cap)
        # 1e-9 dwarfs the few ulps by which dx*dx + dy*dy and np.hypot
        # can miss; below 1e-100 every test falls back to np.hypot.
        near2, far2 = ((m * m * (1 - 1e-9), m * m * (1 + 1e-9)) if m > 1e-100
                       else (-math.inf, math.inf))
        return cls(wander, room_rect.shrink(WALL_MARGIN_M / 2), room_rect.center,
                   m, near2, far2)

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
            if self.far(target[0] - pos[0], target[1] - pos[1]):
                break
            target = self.sample(group, rng)
        return target

    def far(self, dx: float, dy: float) -> bool:
        """``np.hypot(dx, dy) >= min_distance``, decided from the squared
        length unless it lies within 1e-9 of the threshold."""
        d2 = dx * dx + dy * dy
        if d2 > self.far2:
            return True
        if d2 < self.near2:
            return False
        return bool(np.hypot(dx, dy) >= self.min_distance)


def sample_anchor(profile: Profile, room_rect: Rect, activity: Activity,
                  rng: np.random.Generator) -> Point:
    """Sample a position to settle at for the current activity."""
    return _Anchors.of(profile, room_rect).sample(activity.is_group, rng)


class _Walk(NamedTuple):
    """A walk through the doors, measured with the raster's arithmetic."""

    frames: int
    xs: list[float]
    ys: list[float]
    #: Distance walked at each point, summed in ``np.cumsum``'s order.
    cum: list[float]
    #: Each leg's length, 1.0 for an empty leg: the raster's divisor.
    seg_len: list[float]
    total: float

    @classmethod
    def of(cls, a: Point, waypoints: list[Point], speed: float, dt: float) -> "_Walk":
        """The walk from ``a`` through ``waypoints`` at ``speed``."""
        xs = [float(a[0])] + [float(p[0]) for p in waypoints]
        ys = [float(a[1])] + [float(p[1]) for p in waypoints]
        lengths = [float(np.hypot(xs[j + 1] - xs[j], ys[j + 1] - ys[j]))
                   for j in range(len(waypoints))]
        total = sum(lengths)
        cum = [0.0]
        for length in lengths:
            cum.append(cum[-1] + length)
        return cls(max(1, math.ceil(total / (speed * dt))), xs, ys, cum,
                   [length if length > 0 else 1.0 for length in lengths], total)

    def at(self, k: int, speed: float, dt: float) -> Point:
        """Where frame ``k`` (from 1) lies, as :func:`_rasterize_transits`
        places it."""
        d = min(k * speed * dt, self.total)
        j = min(max(bisect_right(self.cum, d) - 1, 0), len(self.seg_len) - 1)
        frac = (d - self.cum[j]) / self.seg_len[j]
        xs, ys = self.xs, self.ys
        return (xs[j] + frac * (xs[j + 1] - xs[j]), ys[j] + frac * (ys[j + 1] - ys[j]))


def _rasterize_transits(plan: FloorPlan, arrays: DayArrays,
                        transits: list[tuple[int, int, _Walk]],
                        speed: float, dt: float) -> None:
    """Write a day's walks through the doors in one array pass, rooms included.

    Each transit is ``(first frame, frames, walk)``.  Frame ``k`` (from
    1) lies ``min(k * speed * dt, total)`` along the walk.  Rooms are
    located from these float64 points, not from the float32 copies in
    ``x``/``y``, which can round across a wall.
    """
    if not transits:
        return
    first, count, total, legs = (np.array(c) for c in zip(*(
        (i, n, w.total, len(w.seg_len)) for i, n, w in transits)))
    width = legs.max() + 1

    def padded(field: str, fill: float) -> np.ndarray:
        rows = [getattr(w, field) for _, _, w in transits]
        return np.array([row + [fill] * (width - len(row)) for row in rows])

    xs, ys, cum, seg_len = (padded("xs", 0.0), padded("ys", 0.0),
                            padded("cum", np.inf), padded("seg_len", 1.0))
    walk = np.repeat(np.arange(len(transits)), count)
    k = np.arange(1, count.sum() + 1) - np.repeat(np.cumsum(count) - count, count)
    d = np.minimum(k * speed * dt, total[walk])
    # (cum <= d).sum() is np.searchsorted(cum, d, side="right") per walk.
    j = np.clip((cum[walk] <= d[:, None]).sum(axis=1) - 1, 0, legs[walk] - 1)
    frac = (d - cum[walk, j]) / seg_len[walk, j]
    x0, y0 = xs[walk, j], ys[walk, j]
    xy = np.column_stack([x0 + frac * (xs[walk, j + 1] - x0),
                          y0 + frac * (ys[walk, j + 1] - y0)])
    frames = first[walk] + k - 1
    arrays.x[frames] = xy[:, 0]
    arrays.y[frames] = xy[:, 1]
    arrays.room[frames] = plan.locate_many(xy)
    arrays.walking[frames] = True
    arrays.activity[frames] = int(Activity.TRANSIT)


def _rasterize_walks(arrays: DayArrays, walks: list[tuple], speed: float, dt: float) -> None:
    """Write a day's in-room walks in one array pass.

    Each walk is ``(first frame, frames, x, y, dx, dy, length)``: a
    straight leg from ``(x, y)`` toward ``(x + dx, y + dy)``.  Frame
    ``k`` (from 1) lies ``min(k * speed * dt, length)`` along it, the
    arithmetic :func:`_rasterize_transits` does for a one-leg walk.
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
        transits: list[tuple[int, int, _Walk]] = []
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
                walk = _Walk.of(cur_pos, waypoints[1:], profile.walk_speed, dt)
                n_walk = min(walk.frames, i1 - i)
                transits.append((i, n_walk, walk))
                cur_pos = walk.at(n_walk, profile.walk_speed, dt)
                i += n_walk
                if n_walk == walk.frames:
                    cur_room_name = slot.room
                else:  # slot too short to arrive; stay mid-path
                    cur_room_name = plan.name_of(int(plan.locate(cur_pos)))
            if cur_room_name == slot.room:
                cur_pos = self._wander(
                    arrays, walks, profile, slot, i, i1, cur_pos, rng, mobility_factor
                )
        _rasterize_walks(arrays, walks, profile.walk_speed, dt)
        _rasterize_transits(plan, arrays, transits, profile.walk_speed, dt)
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
