"""Rooms of the habitat.

The room set matches the paper's Figure 2 axis — airlock, bedroom,
biolab, kitchen, office, restroom, storage, workshop — plus the central
main hall ("a place to rest in the middle"), which Figure 2 excludes
from the transition matrix because it is adjacent to everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigError
from repro.habitat.geometry import Point, Rect

#: Name of the central hall every other room connects to.
MAIN_HALL = "main"

#: Peripheral rooms, in the (alphabetical) order used by the paper's Fig. 2.
ROOM_NAMES = (
    "airlock",
    "bedroom",
    "biolab",
    "kitchen",
    "office",
    "restroom",
    "storage",
    "workshop",
)

#: Rooms in which wearing a badge was prohibited or infeasible.
NO_BADGE_ROOMS = frozenset({"restroom"})


@dataclass(frozen=True)
class Door:
    """A doorway in a room's wall, located at ``position``.

    ``leak_radius_m`` is how close a receiver must be for signals from
    the adjacent room to leak through the opening at reduced attenuation
    — the phenomenon the paper's 10-second stay filter compensates for.
    """

    position: Point
    connects: tuple[str, str]
    leak_radius_m: float = 1.8


@dataclass(frozen=True)
class Room:
    """One room of the habitat."""

    name: str
    rect: Rect
    #: Doors leading out of this room.
    doors: tuple[Door, ...] = field(default_factory=tuple)
    #: Whether badge wearing is prohibited here (privacy rules).
    badge_prohibited: bool = False
    #: Index used in integer-coded room arrays (assigned by the floor plan).
    index: int = -1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("room name must be non-empty")

    @property
    def center(self) -> Point:
        return self.rect.center

    def door_to(self, other: str) -> Door:
        """The door connecting this room to ``other``."""
        for door in self.doors:
            if other in door.connects:
                return door
        raise ConfigError(f"no door between {self.name!r} and {other!r}")
