"""BLE beacon scanning as seen by a badge.

Each beacon broadcasts ~3 advertisements per second; a badge's scanner
aggregates the advertisements it catches into one RSSI observation per
frame per beacon.  Misses happen (scanner duty cycling, collisions) and
weak signals fall below the receiver sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import ConfigError
from repro.habitat.beacons import Beacon
from repro.habitat.floorplan import FloorPlan
from repro.radio.propagation import BLE_2G4, PropagationModel


@dataclass(frozen=True)
class BleScanModel:
    """Per-frame BLE scan synthesis.

    Attributes:
        propagation: the 2.4 GHz band model.
        sensitivity_dbm: RSSI below this is never received.
        detection_prob: probability that at least one advertisement of an
            in-range beacon is caught in a frame.
    """

    propagation: PropagationModel = BLE_2G4
    sensitivity_dbm: float = -95.0
    detection_prob: float = 0.93

    def __post_init__(self) -> None:
        if not 0.0 < self.detection_prob <= 1.0:
            raise ConfigError("detection_prob must be in (0, 1]")

    def scan_fleet(
        self,
        plan: FloorPlan,
        beacons: list[Beacon],
        badge_xy: np.ndarray,
        badge_room: np.ndarray,
        active: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Synthesize one day of scans for a whole badge fleet.

        Per badge the RNG stream draw order is: all shadowing normals in
        one beacon-major ``(beacons, frames)`` float32 block, then one
        detection uniform per (beacon, frame) cell whose shadowed RSSI
        clears the receiver sensitivity, again in beacon-major order.
        Each badge draws only from its own generator, so a batch of one
        is bit-identical to the same badge's row in a larger batch.

        Badges sit still most of the day, so the deterministic link
        budget is evaluated once per *distinct* ``(position, room)`` and
        gathered back onto the frame grid; only shadowing and detection
        touch every frame.

        Args:
            plan: floor plan.
            beacons: deployed beacons.
            badge_xy: ``(badges, frames, 2)`` badge positions.
            badge_room: ``(badges, frames)`` badge room indices.
            active: ``(badges, frames)`` recording masks.
            rngs: one random stream per badge, aligned with axis 0.

        Returns:
            ``(badges, frames, n_beacons)`` float32 RSSI; NaN = not heard.
        """
        n_badges, n = active.shape
        if len(rngs) != n_badges:
            raise ConfigError("need one RNG stream per badge")
        n_beacons = len(beacons)
        out = np.full((n_badges, n, n_beacons), np.nan, dtype=np.float32)
        tx_power = np.array([b.tx_power_dbm for b in beacons], dtype=np.float64)
        tx_xy = np.array([b.position for b in beacons], dtype=np.float64)
        tx_rooms = np.array([int(b.room) for b in beacons], dtype=np.int64)
        sigma = np.float32(self.propagation.shadow_sigma_db)
        sensitivity = np.float32(self.sensitivity_dbm)
        for b in range(n_badges):
            rng = rngs[b]
            usable = active[b] & ~np.isnan(badge_xy[b]).any(axis=1)
            if not usable.any():
                continue
            idx = np.flatnonzero(usable)
            m = idx.size
            xy = np.ascontiguousarray(badge_xy[b][idx], dtype=np.float32)
            rooms = badge_room[b][idx]
            first, inverse = _unique_positions(xy, rooms)
            det = self.propagation.received_dbm_matrix(
                plan, tx_power, tx_xy, tx_rooms, xy[first], rooms[first]
            ).astype(np.float32)
            # (beacons, frames), gathered from a C-ordered copy: ``vals``
            # stays C-ordered for the add and the scatter below.
            vals = np.take(np.ascontiguousarray(det.T), inverse, axis=1)
            if sigma > 0:
                shadow = rng.standard_normal(size=(n_beacons, m), dtype=np.float32)
                np.multiply(shadow, sigma, out=shadow)
                np.add(vals, shadow, out=vals)
            heard = vals >= sensitivity
            flat = np.flatnonzero(heard.ravel())
            if self.detection_prob < 1.0 and flat.size:
                flat = flat[rng.random(flat.size) < self.detection_prob]
            k_idx, f_idx = np.divmod(flat, m)
            out[b][idx[f_idx], k_idx] = vals.ravel()[flat]
        return out


def _unique_positions(
    xy: np.ndarray, rooms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a frame grid to its distinct ``(position, room)`` rows.

    Returns ``(first, inverse)`` with ``xy[first]`` the representative
    rows and ``inverse`` mapping every frame back to its representative
    (``xy[first][inverse] == xy`` exactly — bit-level row identity, so
    any function of position and room may be evaluated on the compact
    rows and gathered back without changing a single output bit).
    """
    key = np.ascontiguousarray(xy, dtype=np.float32).view(np.int64).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if not np.array_equal(rooms[first][inverse], rooms):
        # A position mapped to two different rooms (caller passed rooms
        # not derived from the positions): fold the room into the key.
        # Structured sort is slower, so this stays the fallback.
        full = np.empty(key.shape[0], dtype=[("xy", np.int64), ("room", np.int64)])
        full["xy"] = key
        full["room"] = rooms
        _, first, inverse = np.unique(full, return_index=True, return_inverse=True)
    return first, inverse
