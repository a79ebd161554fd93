"""Tests for BLE beacon scanning."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.habitat.beacons import place_beacons
from repro.habitat.floorplan import lunares_floorplan
from repro.radio.ble import BleScanModel


@pytest.fixture(scope="module")
def plan():
    return lunares_floorplan()


@pytest.fixture(scope="module")
def beacons(plan):
    return place_beacons(plan, 27)


def scan_one(plan, beacons, xy, rooms, active, model=None, seed=0):
    """One badge's scans, as a fleet batch of one."""
    model = model if model is not None else BleScanModel()
    return model.scan_fleet(
        plan, beacons, xy[None], rooms[None], active[None],
        (np.random.default_rng(seed),),
    )[0]


def kitchen_scan(plan, beacons, frames=500, detection_prob=0.93, seed=0):
    kitchen = plan.room("kitchen")
    xy = np.tile(np.array(kitchen.rect.center, dtype=np.float64), (frames, 1))
    rooms = np.full(frames, kitchen.index, dtype=np.int8)
    active = np.ones(frames, dtype=bool)
    model = BleScanModel(detection_prob=detection_prob)
    return scan_one(plan, beacons, xy, rooms, active, model, seed)


class TestScan:
    def test_shape(self, plan, beacons):
        rssi = kitchen_scan(plan, beacons, frames=100)
        assert rssi.shape == (100, 27)

    def test_same_room_beacons_heard(self, plan, beacons):
        rssi = kitchen_scan(plan, beacons)
        kitchen_idx = plan.index_of("kitchen")
        own = [k for k, b in enumerate(beacons) if b.room == kitchen_idx]
        heard_frac = (~np.isnan(rssi[:, own])).mean()
        assert heard_frac > 0.85

    def test_own_room_loudest_on_average(self, plan, beacons):
        rssi = kitchen_scan(plan, beacons)
        kitchen_idx = plan.index_of("kitchen")
        rooms = np.array([b.room for b in beacons])
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                means = np.nanmean(rssi, axis=0)
        best = int(np.nanargmax(np.nan_to_num(means, nan=-np.inf)))
        assert rooms[best] == kitchen_idx

    def test_inactive_frames_empty(self, plan, beacons):
        kitchen = plan.room("kitchen")
        xy = np.tile(np.array(kitchen.rect.center), (10, 1))
        rooms = np.full(10, kitchen.index, dtype=np.int8)
        active = np.zeros(10, dtype=bool)
        rssi = scan_one(plan, beacons, xy, rooms, active)
        assert np.isnan(rssi).all()

    def test_nan_positions_empty(self, plan, beacons):
        xy = np.full((10, 2), np.nan)
        rooms = np.full(10, -1, dtype=np.int8)
        active = np.ones(10, dtype=bool)
        rssi = scan_one(plan, beacons, xy, rooms, active)
        assert np.isnan(rssi).all()

    def test_detection_prob_controls_misses(self, plan, beacons):
        dense = kitchen_scan(plan, beacons, detection_prob=1.0)
        sparse = kitchen_scan(plan, beacons, detection_prob=0.5)
        assert np.isnan(sparse).mean() > np.isnan(dense).mean()

    def test_sensitivity_floor(self, plan, beacons):
        rssi = kitchen_scan(plan, beacons)
        assert np.nanmin(rssi) >= BleScanModel().sensitivity_dbm

    def test_invalid_detection_prob(self):
        with pytest.raises(ConfigError):
            BleScanModel(detection_prob=0.0)
