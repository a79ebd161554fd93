"""Localization pipeline: BLE scans -> rooms and in-room positions.

RSSI smoothing, strongest-beacon room detection (perfect in the shielded
habitat, modulo doorway leakage), weighted-centroid trilateration with
a Gauss-Newton range refinement, 1-second dominant-position frames,
and the 28 cm heatmap grids of the paper's Figure 3.
"""

from repro.localization.heatmap import Heatmap, build_heatmap
from repro.localization.pipeline import LocalizationResult, Localizer
from repro.localization.room_detector import RoomDetector

__all__ = [
    "Heatmap",
    "LocalizationResult",
    "Localizer",
    "RoomDetector",
    "build_heatmap",
]
