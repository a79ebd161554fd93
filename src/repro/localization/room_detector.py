"""Room-level localization from BLE scans.

"The room the badge located in was detected perfectly" because the metal
walls shield beacon signals; the detector maps each frame's strongest
beacon to that beacon's room, then applies a short majority filter to
absorb doorway leakage and shadowing flukes.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigError
from repro.localization.rssi import strongest_beacon


class RoomDetector:
    """Strongest-beacon room classification with a majority filter."""

    def __init__(self, beacon_rooms: np.ndarray, vote_window: int = 3):
        """Args:
            beacon_rooms: ``(n_beacons,)`` room index of each beacon.
            vote_window: odd number of frames for the majority filter
                (1 disables filtering).
        """
        if vote_window < 1 or vote_window % 2 == 0:
            raise ConfigError("vote_window must be a positive odd number")
        self.beacon_rooms = np.asarray(beacon_rooms, dtype=np.int64)
        self.vote_window = int(vote_window)

    def detect(self, rssi: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Per-frame room estimate; -1 where inactive or nothing heard."""
        best = strongest_beacon(rssi)
        rooms = np.where(best >= 0, self.beacon_rooms[np.maximum(best, 0)], -1)
        rooms = rooms.astype(np.int8)
        inactive = ~np.asarray(active, dtype=bool)
        rooms[inactive] = -1
        if self.vote_window > 1:
            rooms = majority_filter(rooms, self.vote_window)
            rooms[inactive] = -1  # smoothing may not invent data gaps away
        return rooms


def majority_filter(rooms: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window majority vote over an int8 label sequence.

    Negative labels (unknown) never win unless the whole window is
    unknown.  Implemented with per-label box sums, so the cost is
    O(frames * distinct_labels).
    """
    if window < 1 or window % 2 == 0:
        raise ConfigError("window must be a positive odd number")
    rooms = np.asarray(rooms)
    labels = np.unique(rooms[rooms >= 0])
    if labels.size == 0 or window == 1:
        return rooms.copy()
    n = rooms.shape[0]
    half = min(window // 2, n)  # offsets past the last frame add nothing
    counts = np.zeros((labels.size, n), dtype=np.int32)
    for k, label in enumerate(labels):
        mask = (rooms == label).astype(np.int32)
        # Shifted in-place adds (edges clip naturally) — cheaper than a
        # cumsum plus two clipped index gathers per label.
        row = counts[k]
        for off in range(-half, half + 1):
            dst = slice(max(0, -off), n - max(0, off))
            src = slice(max(0, off), n - max(0, -off))
            row[dst] += mask[src]
    best = np.argmax(counts, axis=0)
    best_count = counts[best, np.arange(n)]
    out = np.where(best_count > 0, labels[best], -1).astype(rooms.dtype)
    return out
