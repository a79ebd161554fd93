"""Tests for in-room position estimation (:func:`localize_rooms`)."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.localization.trilateration import _dot_beacons, _sum_beacons, localize_rooms

SQUARE = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])


def noise_free_rssi(points, beacons, tx_power_dbm=-59.0, exponent=2.2):
    """Log-distance RSSI of every beacon at every point, without shadowing."""
    d = np.hypot(points[:, None, 0] - beacons[None, :, 0],
                 points[:, None, 1] - beacons[None, :, 1])
    return tx_power_dbm - 10.0 * exponent * np.log10(d)


def locate(rssi, beacons, refine, rooms=None, beacon_room=None, **kwargs):
    """Estimates for ``rssi`` rows, all in room 0 unless told otherwise."""
    rssi = np.atleast_2d(np.asarray(rssi, dtype=np.float32))
    if rooms is None:
        rooms = np.zeros(rssi.shape[0], dtype=np.int64)
    if beacon_room is None:
        beacon_room = np.zeros(len(beacons), dtype=np.int64)
    return localize_rooms(rssi, np.asarray(rooms), beacons, np.asarray(beacon_room),
                          refine=refine, **kwargs)


class TestRanging:
    def test_inverts_path_loss(self):
        """RSSI at 1 m equals tx power; at 10 m it is 10*n dB lower."""
        beacons = np.array([[0.0, 0.0], [11.0, 0.0]])
        est = locate([[-59.0, -59.0 - 22.0]], beacons, refine=True)
        np.testing.assert_allclose(est[0], [1.0, 0.0], atol=1e-4)

    def test_monotone(self):
        """A louder beacon reads nearer: the two-beacon fit sits closer to it."""
        beacons = np.array([[0.0, 0.0], [10.0, 0.0]])
        rssi = [[level, -60.0] for level in (-50.0, -60.0, -70.0)]
        x = locate(rssi, beacons, refine=True)[:, 0]
        assert x[0] < x[1] < x[2]

    def test_bad_exponent(self):
        with pytest.raises(ConfigError):
            locate([[-60.0]], np.zeros((1, 2)), refine=False, path_loss_exponent=0.0)


class TestWeightedCentroid:
    def test_equidistant_gives_centroid(self):
        beacons = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
        est = locate(np.full((1, 3), -65.0), beacons, refine=False)
        np.testing.assert_allclose(est[0], beacons.mean(axis=0), atol=1e-6)

    def test_pulls_toward_strong_beacon(self):
        beacons = np.array([[0.0, 0.0], [10.0, 0.0]])
        est = locate([[-50.0, -80.0]], beacons, refine=False)
        assert est[0, 0] < 1.0

    def test_mask_limits_contributors(self):
        """Only the detected room's beacons contribute."""
        beacons = np.array([[0.0, 0.0], [10.0, 0.0]])
        est = locate([[-50.0, -50.0]], beacons, refine=False, beacon_room=[0, 1])
        np.testing.assert_array_equal(est[0], [0.0, 0.0])

    def test_no_beacons_nan(self):
        """An unknown room, or a room none of whose beacons is heard, is NaN."""
        beacons = np.array([[0.0, 0.0], [1.0, 0.0]])
        rssi = [[-60.0, -60.0], [np.nan, -60.0]]
        est = locate(rssi, beacons, refine=True, rooms=[-1, 0], beacon_room=[0, 1])
        assert np.isnan(est).all()

    def test_accuracy_on_synthetic_room(self):
        """Noise-free RSSI from 3 beacons localizes within ~1 m."""
        rng = np.random.default_rng(0)
        beacons = np.array([[0.5, 0.5], [3.5, 0.5], [2.0, 2.5]])
        truth = rng.uniform(0.8, 2.8, size=(100, 2))
        est = locate(noise_free_rssi(truth, beacons), beacons, refine=False)
        err = np.hypot(est[:, 0] - truth[:, 0], est[:, 1] - truth[:, 1])
        assert np.median(err) < 1.0


class TestGaussNewton:
    def test_exact_ranges_converge(self):
        beacons = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        truth = np.array([[1.5, 2.0]])
        est = locate(noise_free_rssi(truth, beacons), beacons, refine=True)
        np.testing.assert_allclose(est[0], truth[0], atol=1e-3)

    def test_improves_over_centroid(self):
        truth = np.array([[0.8, 0.7]])
        rssi = noise_free_rssi(truth, SQUARE)
        centroid = locate(rssi, SQUARE, refine=False)[0]
        refined = locate(rssi, SQUARE, refine=True)[0]
        assert np.hypot(*(refined - truth[0])) < np.hypot(*(centroid - truth[0]))

    def test_single_beacon_returns_initial(self):
        """A row hearing one beacon keeps its centroid: that beacon."""
        rssi = [[-62.0, np.nan, np.nan, np.nan]]
        est = locate(rssi, SQUARE, refine=True)
        np.testing.assert_array_equal(est[0], SQUARE[0])

    def test_noise_free_recovery_property(self):
        rng = np.random.default_rng(0)
        truth = rng.uniform(0.5, 3.5, size=(2000, 2))
        est = locate(noise_free_rssi(truth, SQUARE), SQUARE, refine=True)
        assert np.hypot(est[:, 0] - truth[:, 0], est[:, 1] - truth[:, 1]).max() < 1e-4


class TestBeaconMajorReductions:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_equal_frame_major_bit_for_bit(self, k):
        """The beacon-major sums equal ``einsum`` and ``sum(axis=1)`` over
        the frame-major block, signed zeros included."""
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, 1000)).astype(np.float32)
        b = rng.standard_normal((k, 1000)).astype(np.float32)
        a[rng.random(a.shape) < 0.4] = -0.0
        b[rng.random(b.shape) < 0.4] = 0.0
        rows_a, rows_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        assert _sum_beacons(a).tobytes() == rows_a.sum(axis=1).tobytes()
        assert (_dot_beacons(a, b).tobytes()
                == np.einsum("ij,ij->i", rows_a, rows_b).tobytes())
