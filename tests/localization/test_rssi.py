"""Tests for RSSI conditioning."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.localization.rssi import boxcar_smooth, strongest_beacon


class TestBoxcarSmooth:
    def test_constant_signal_unchanged(self):
        rssi = np.full((20, 3), -60.0, dtype=np.float32)
        out = boxcar_smooth(rssi)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, rssi)

    def test_reduces_variance(self):
        rng = np.random.default_rng(0)
        rssi = -60.0 + rng.normal(0, 4, size=(500, 1))
        out = boxcar_smooth(rssi)
        assert np.std(out) < np.std(rssi)

    def test_fills_short_gaps(self):
        rssi = np.full((10, 1), -60.0)
        rssi[4:6, 0] = np.nan
        out = boxcar_smooth(rssi, window=5)
        np.testing.assert_array_equal(out, np.full((10, 1), -60.0))

    def test_long_gap_stays_nan(self):
        rssi = np.full((20, 1), -60.0)
        rssi[5:15, 0] = np.nan
        out = boxcar_smooth(rssi, window=5)
        assert np.isnan(out[7:13]).all()
        assert np.isfinite(out[:7]).all() and np.isfinite(out[13:]).all()

    def test_leading_nans_stay_nan(self):
        rssi = np.full((6, 1), np.nan)
        rssi[4:, 0] = -50.0
        out = boxcar_smooth(rssi, window=3)
        assert np.isnan(out[:3]).all()
        assert (out[3:, 0] == -50.0).all()

    def test_wide_window_counts_do_not_overflow(self):
        """A window above 255 counts its samples in a wider integer, so a
        constant signal stays exactly constant."""
        rssi = np.full((1000, 2), -60.0, dtype=np.float32)
        out = boxcar_smooth(rssi, window=301)
        np.testing.assert_array_equal(out, rssi)

    def test_window_wider_than_the_scan(self):
        """Offsets past the last frame add nothing: every frame averages
        the whole column."""
        rssi = np.array([[-60.0], [-70.0], [np.nan]])
        out = boxcar_smooth(rssi, window=9)
        np.testing.assert_array_equal(out, np.full((3, 1), -65.0))

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            boxcar_smooth(np.zeros((2, 2)), window=0)

    def test_window_one_passthrough(self):
        rng = np.random.default_rng(1)
        rssi = rng.normal(-60, 3, size=(50, 2))
        out = boxcar_smooth(rssi, window=1)
        np.testing.assert_array_equal(out, rssi)
        assert out is not rssi


    @pytest.mark.parametrize("window", [1, 5])
    def test_out_receives_the_result_in_the_input_dtype(self, window):
        """Smoothing into a destination gives the returned array's bytes,
        also in a wider destination (a float32 badge in a float64 fleet
        matrix), and leaves the input as it was."""
        rng = np.random.default_rng(2)
        rssi = rng.normal(-70.0, 5.0, size=(40, 3)).astype(np.float32)
        rssi[rng.random(rssi.shape) < 0.5] = np.nan
        before = rssi.copy()
        ref = boxcar_smooth(rssi, window=window)
        for dtype in (np.float32, np.float64):
            out = np.full(rssi.shape, 7.0, dtype=dtype)
            assert boxcar_smooth(rssi, window=window, out=out) is out
            np.testing.assert_array_equal(out, ref.astype(dtype))
        np.testing.assert_array_equal(rssi, before)


class TestStrongestBeacon:
    def test_basic(self):
        rssi = np.array([[-70.0, -50.0, -90.0]])
        assert strongest_beacon(rssi)[0] == 1

    def test_nan_ignored(self):
        rssi = np.array([[np.nan, -80.0, np.nan]])
        assert strongest_beacon(rssi)[0] == 1

    def test_all_nan_is_minus_one(self):
        rssi = np.full((3, 4), np.nan)
        assert (strongest_beacon(rssi) == -1).all()
