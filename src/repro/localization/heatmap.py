"""Occupancy heatmaps on the paper's 28 cm grid.

Figure 3 presents "histograms with a logarithmic scale that present how
much time in total a given astronaut spent in a given area (with a
granularity of 28 cm x 28 cm squares)".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError, DataError
from repro.habitat.geometry import Rect

#: The paper's grid granularity, meters.
CELL_SIZE_M = 0.28


@dataclass
class Heatmap:
    """Time-accumulating 2-D histogram over the habitat."""

    bounds: Rect
    cell_m: float
    counts: np.ndarray  # (ny, nx) float64 seconds

    @classmethod
    def empty(cls, bounds: Rect, cell_m: float = CELL_SIZE_M) -> "Heatmap":
        if cell_m <= 0:
            raise ConfigError("cell size must be positive")
        nx = max(1, int(np.ceil(bounds.width / cell_m)))
        ny = max(1, int(np.ceil(bounds.height / cell_m)))
        return cls(bounds=bounds, cell_m=cell_m, counts=np.zeros((ny, nx)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def add(self, xs: np.ndarray, ys: np.ndarray, dt: float = 1.0) -> None:
        """Accumulate ``dt`` seconds for every (x, y) sample; NaNs skipped."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape:
            raise DataError("xs and ys must have the same shape")
        ok = ~(np.isnan(xs) | np.isnan(ys))
        ix = ((xs[ok] - self.bounds.x0) / self.cell_m).astype(np.int64)
        iy = ((ys[ok] - self.bounds.y0) / self.cell_m).astype(np.int64)
        ny, nx = self.counts.shape
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        np.add.at(self.counts, (iy[inside], ix[inside]), dt)

    def total_seconds(self) -> float:
        """Total accumulated time."""
        return float(self.counts.sum())

    def log_counts(self) -> np.ndarray:
        """``log10(1 + seconds)`` — the paper's logarithmic scale."""
        return np.log10(1.0 + self.counts)

    def center_vs_corner_ratio(self, room: Rect) -> float:
        """Ratio of time in a room's central half vs its corner band.

        The paper observes impaired astronaut A "tended to stay in the
        middle of a room [and] usually did not approach corners"; this
        statistic quantifies it (large ratio = center-bound).  The edge
        band is the outer third of the room's smaller extent — wide
        enough that ordinary bench work lands in it.
        """
        center = room.shrink(min(room.width, room.height) / 3.0)
        t_room = self._time_in(room)
        t_center = self._time_in(center)
        t_edge = max(t_room - t_center, 0.0)
        return t_center / t_edge if t_edge > 0 else np.inf

    def _time_in(self, rect: Rect) -> float:
        ny, nx = self.counts.shape
        xs = self.bounds.x0 + (np.arange(nx) + 0.5) * self.cell_m
        ys = self.bounds.y0 + (np.arange(ny) + 0.5) * self.cell_m
        col = (xs >= rect.x0) & (xs <= rect.x1)
        row = (ys >= rect.y0) & (ys <= rect.y1)
        return float(self.counts[np.ix_(row, col)].sum())


def build_heatmap(
    xs: np.ndarray, ys: np.ndarray, bounds: Rect, cell_m: float = CELL_SIZE_M, dt: float = 1.0
) -> Heatmap:
    """One-shot heatmap construction from position samples."""
    hm = Heatmap.empty(bounds, cell_m)
    hm.add(xs, ys, dt)
    return hm
