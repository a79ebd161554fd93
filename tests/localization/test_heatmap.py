"""Tests for occupancy heatmaps."""

import numpy as np
import pytest

from repro.core.errors import ConfigError, DataError
from repro.habitat.geometry import Rect
from repro.localization.heatmap import CELL_SIZE_M, Heatmap, build_heatmap


@pytest.fixture()
def bounds():
    return Rect(0.0, 0.0, 5.6, 2.8)


class TestBasics:
    def test_paper_cell_size(self):
        assert CELL_SIZE_M == 0.28

    def test_shape(self, bounds):
        hm = Heatmap.empty(bounds)
        assert hm.shape == (10, 20)

    def test_add_accumulates_time(self, bounds):
        hm = Heatmap.empty(bounds)
        hm.add(np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]), dt=2.0)
        assert hm.counts[3, 3] == 6.0  # the 0.28 m cell holding (1.0, 1.0)
        assert hm.total_seconds() == 6.0

    def test_nan_skipped(self, bounds):
        hm = Heatmap.empty(bounds)
        hm.add(np.array([np.nan, 1.0]), np.array([1.0, np.nan]))
        assert hm.total_seconds() == 0.0

    def test_out_of_bounds_skipped(self, bounds):
        hm = Heatmap.empty(bounds)
        hm.add(np.array([100.0]), np.array([1.0]))
        assert hm.total_seconds() == 0.0

    def test_shape_mismatch(self, bounds):
        hm = Heatmap.empty(bounds)
        with pytest.raises(DataError):
            hm.add(np.zeros(2), np.zeros(3))

    def test_invalid_cell(self, bounds):
        with pytest.raises(ConfigError):
            Heatmap.empty(bounds, cell_m=0.0)

    def test_log_counts(self, bounds):
        hm = Heatmap.empty(bounds)
        hm.add(np.array([1.0]), np.array([1.0]), dt=999.0)
        log = hm.log_counts()
        assert log.max() == pytest.approx(3.0)
        assert log.min() == 0.0

    def test_occupied_cells(self, bounds):
        hm = build_heatmap(np.array([0.1, 5.0]), np.array([0.1, 2.0]), bounds)
        assert np.count_nonzero(hm.counts) == 2


class TestCenterCornerRatio:
    def test_center_bound_occupant(self, bounds):
        room = Rect(0.0, 0.0, 4.0, 2.8)
        hm = Heatmap.empty(bounds)
        rng = np.random.default_rng(0)
        center = room.shrink(1.2).sample(rng, 2000)
        hm.add(center[:, 0], center[:, 1])
        ratio_center = hm.center_vs_corner_ratio(room)
        assert ratio_center > 3.0

    def test_uniform_occupant_lower_ratio(self, bounds):
        room = Rect(0.0, 0.0, 4.0, 2.8)
        hm = Heatmap.empty(bounds)
        rng = np.random.default_rng(0)
        uniform = room.sample(rng, 2000)
        hm.add(uniform[:, 0], uniform[:, 1])
        assert hm.center_vs_corner_ratio(room) < 3.0

    def test_empty_room_infinite(self, bounds):
        hm = Heatmap.empty(bounds)
        assert hm.center_vs_corner_ratio(Rect(0, 0, 1, 1)) == np.inf
