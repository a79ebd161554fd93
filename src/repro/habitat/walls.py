"""RF attenuation through the habitat's walls and doorways.

Lunares' rooms have metal walls that "perfectly shielded the signal from
the beacons in the other rooms", with occasional leakage through open
doors that the paper filters with a 10-second minimum stay.  The wall
model reproduces both effects: a strong per-wall penalty, and a reduced
penalty when the receiver stands near the connecting doorway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError
from repro.habitat.floorplan import OUTSIDE, FloorPlan
from repro.habitat.geometry import Point


@dataclass(frozen=True)
class WallModel:
    """Extra path loss (dB) contributed by walls between rooms.

    Attributes:
        wall_db: penalty per wall crossed (metal walls are very lossy).
        door_leak_db: reduction of the penalty when the receiver stands
            within the doorway's leak radius of a directly connecting
            door — the source of transient wrong-room beacon hits.
        outside_db: penalty for links crossing the pressure hull (badges
            are not worn during EVAs, but the model stays defined).
    """

    wall_db: float = 35.0
    door_leak_db: float = 29.0
    outside_db: float = 120.0

    def __post_init__(self) -> None:
        if self.wall_db < 0 or self.door_leak_db < 0 or self.outside_db < 0:
            raise ConfigError("attenuations must be non-negative")
        if self.door_leak_db > self.wall_db:
            raise ConfigError("door_leak_db cannot exceed wall_db")

    def attenuation_db(
        self,
        plan: FloorPlan,
        rx_xy: np.ndarray,
        rx_room: np.ndarray,
        tx_point: Point,
        tx_room: int,
    ) -> np.ndarray:
        """Wall attenuation for many receivers against one transmitter.

        Args:
            plan: the floor plan (supplies topology and door positions).
            rx_xy: ``(n, 2)`` receiver positions.
            rx_room: ``(n,)`` receiver room indices (``OUTSIDE`` allowed).
            tx_point: transmitter position.
            tx_room: transmitter room index.

        Returns:
            ``(n,)`` attenuation in dB.
        """
        rx_xy = np.asarray(rx_xy, dtype=np.float64)
        rx_room = np.asarray(rx_room)
        walls = plan.wall_matrix()
        out = np.empty(rx_room.shape[0], dtype=np.float64)

        outside = rx_room == OUTSIDE
        inside = ~outside
        out[outside] = self.outside_db
        if tx_room == OUTSIDE:
            out[:] = self.outside_db
            return out

        n_walls = walls[rx_room[inside], tx_room].astype(np.float64)
        atten = n_walls * self.wall_db

        # Door leakage: a receiver near the doorway that directly connects
        # its room to the transmitter's room hears through the opening.
        tx_room_obj = plan.rooms[tx_room]
        for door in tx_room_obj.doors:
            a, b = (plan.index_of(name) for name in door.connects)
            other = b if a == tx_room else a
            near = self._near_door(rx_xy[inside], door.position, door.leak_radius_m)
            leaky = near & (rx_room[inside] == other)
            atten[leaky] = np.maximum(atten[leaky] - self.door_leak_db, 0.0)
        # Second-hand leakage through the hall: a receiver in the hall near
        # some other peripheral room's door still has 1 wall to that room;
        # handled above since hall connects to every room.  Receivers in a
        # peripheral room near their own hall door hear hall transmitters:
        if tx_room == plan.main_index:
            pass  # covered by the loop (the hall holds all doors)
        out[inside] = atten
        return out

    def attenuation_db_matrix(
        self,
        plan: FloorPlan,
        rx_xy: np.ndarray,
        rx_room: np.ndarray,
        tx_rooms: np.ndarray,
    ) -> np.ndarray:
        """Wall attenuation for many receivers against many transmitters.

        The fleet-batched counterpart of :meth:`attenuation_db`: one call
        covers every (receiver frame, transmitter) combination, with the
        door-leak correction applied per doorway instead of per
        transmitter.

        Args:
            plan: the floor plan (supplies topology and door positions).
            rx_xy: ``(n, 2)`` receiver positions.
            rx_room: ``(n,)`` receiver room indices (``OUTSIDE`` allowed).
            tx_rooms: ``(k,)`` transmitter room indices.

        Returns:
            ``(n, k)`` attenuation in dB.
        """
        rx_xy = np.asarray(rx_xy, dtype=np.float64)
        rx_room = np.asarray(rx_room, dtype=np.int64)
        tx_rooms = np.asarray(tx_rooms, dtype=np.int64)
        walls = plan.wall_matrix()

        n_walls = walls[np.maximum(rx_room, 0)[:, None], np.maximum(tx_rooms, 0)[None, :]]
        out = n_walls.astype(np.float64) * self.wall_db

        # Door leakage, per doorway: receivers near the door that directly
        # connects rooms (a, b) hear a-room transmitters from b and vice
        # versa through the opening.
        for room in plan.rooms:
            for door in room.doors:
                a, b = (plan.index_of(name) for name in door.connects)
                if room.index not in (a, b):
                    continue
                other = b if a == room.index else a
                cols = np.flatnonzero(tx_rooms == room.index)
                if cols.size == 0:
                    continue
                near = self._near_door(rx_xy, door.position, door.leak_radius_m)
                rows = np.flatnonzero(near & (rx_room == other))
                if rows.size == 0:
                    continue
                region = np.ix_(rows, cols)
                out[region] = np.maximum(out[region] - self.door_leak_db, 0.0)

        out[rx_room == OUTSIDE, :] = self.outside_db
        out[:, tx_rooms == OUTSIDE] = self.outside_db
        return out

    @staticmethod
    def _near_door(points: np.ndarray, door_pos: Point, radius: float) -> np.ndarray:
        dx = points[:, 0] - door_pos[0]
        dy = points[:, 1] - door_pos[1]
        return dx * dx + dy * dy <= radius * radius

    def wall_count_point(self, plan: FloorPlan, a: Point, b: Point) -> int:
        """Wall count between two points (non-vectorized convenience)."""
        ra, rb = plan.locate(a), plan.locate(b)
        if OUTSIDE in (ra, rb):
            return 3
        return int(plan.wall_matrix()[ra, rb])
