"""Tests for room detection and the majority filter."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.localization.room_detector import RoomDetector, majority_filter


class TestMajorityFilter:
    def test_removes_single_frame_blip(self):
        rooms = np.array([1, 1, 1, 2, 1, 1, 1], dtype=np.int8)
        out = majority_filter(rooms, window=3)
        assert (out == 1).all()

    def test_keeps_genuine_transition(self):
        rooms = np.array([1] * 10 + [2] * 10, dtype=np.int8)
        out = majority_filter(rooms, window=3)
        assert (out[:9] == 1).all() and (out[11:] == 2).all()

    def test_fills_brief_unknowns(self):
        rooms = np.array([1, 1, -1, 1, 1], dtype=np.int8)
        out = majority_filter(rooms, window=3)
        assert (out == 1).all()

    def test_all_unknown_stays_unknown(self):
        rooms = np.full(5, -1, dtype=np.int8)
        out = majority_filter(rooms, window=3)
        assert (out == -1).all()

    def test_window_one_identity(self):
        rooms = np.array([1, 2, 1], dtype=np.int8)
        np.testing.assert_array_equal(majority_filter(rooms, 1), rooms)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_window_wider_than_the_scan(self, n):
        """Offsets past the last frame add nothing: every frame votes over
        the whole scan."""
        rooms = np.array([3, -1, 3, 5], dtype=np.int8)[:n]
        np.testing.assert_array_equal(majority_filter(rooms, 7), np.full(n, 3))

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            majority_filter(np.zeros(5, dtype=np.int8), window=4)


class TestRoomDetector:
    def test_maps_strongest_beacon_to_room(self):
        beacon_rooms = np.array([0, 1, 2])
        detector = RoomDetector(beacon_rooms, vote_window=1)
        rssi = np.array([[-80.0, -50.0, -90.0]] * 5)
        active = np.ones(5, dtype=bool)
        assert (detector.detect(rssi, active) == 1).all()

    def test_inactive_frames_unknown(self):
        detector = RoomDetector(np.array([0, 1]), vote_window=3)
        rssi = np.full((10, 2), -50.0)
        active = np.ones(10, dtype=bool)
        active[4:7] = False
        out = detector.detect(rssi, active)
        assert (out[4:7] == -1).all()
        assert (out[:4] >= 0).all()

    def test_silence_is_unknown(self):
        detector = RoomDetector(np.array([0, 1]), vote_window=1)
        rssi = np.full((5, 2), np.nan)
        out = detector.detect(rssi, np.ones(5, dtype=bool))
        assert (out == -1).all()

    def test_leakage_blip_filtered(self):
        """A 2-frame wrong-room blip (doorway leakage) is absorbed."""
        detector = RoomDetector(np.array([3, 5]), vote_window=5)
        rssi = np.full((20, 2), -90.0)
        rssi[:, 0] = -50.0          # room 3 dominates
        rssi[8:10, 1] = -40.0       # brief leakage toward room 5
        out = detector.detect(rssi, np.ones(20, dtype=bool))
        assert (out == 3).all()

    def test_vote_window_validation(self):
        with pytest.raises(ConfigError):
            RoomDetector(np.array([0]), vote_window=2)
