"""RSSI conditioning: smoothing over noisy scan streams.

BLE RSSI carries several dB of shadowing noise frame to frame; a short
moving average per beacon stabilizes both room votes and centroid
weights without adding meaningful lag at walking speeds.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigError


def boxcar_smooth(
    rssi: np.ndarray, window: int = 5, out: np.ndarray | None = None
) -> np.ndarray:
    """NaN-aware centered moving average over a ``(frames, beacons)`` matrix.

    Fully vectorized (one shifted add per window offset); this is the
    localization pipeline's smoother.  Cells with no finite sample in
    their window stay NaN.  The input's float dtype is preserved (the
    pipeline smooths float32 scans in float32); integer input is
    smoothed in float64.

    ``out``, when given, is the ``rssi``-shaped destination (the
    localizer passes a badge's rows of its fleet matrix): the window sums
    accumulate there and are divided in place, so no result array is
    allocated.  A wider ``out`` dtype receives the result computed in the
    input's dtype, as a cast of the returned array would.  The input is
    never written.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    rssi = np.asarray(rssi)
    if not np.issubdtype(rssi.dtype, np.floating):
        rssi = rssi.astype(np.float64)
    if out is None:
        out = np.empty(rssi.shape, dtype=rssi.dtype)
    n = rssi.shape[0]
    if window == 1 or n == 0:
        out[...] = rssi
        return out
    half = min(window // 2, n)  # offsets past the last frame add nothing
    finite = np.isfinite(rssi)
    values = np.where(finite, rssi, rssi.dtype.type(0))
    ones = finite.view(np.uint8)  # bools are 0/1 bytes: count without a cast
    # Shifted in-place accumulation: one aligned add per window offset
    # (edges clip naturally), which beats a cumulative-sum formulation
    # because axis-0 cumsum strides column-wise through the matrix.  The
    # few-term sums also stay accurate in float32, so the input dtype is
    # preserved end to end.  Finite samples are counted in the smallest
    # unsigned type that holds ``window``; small integers convert to
    # float exactly, so the division is the float one, bit for bit.
    sums = out if out.dtype == rssi.dtype else np.empty_like(values)
    sums.fill(0)
    counts = np.zeros(values.shape, dtype=np.min_scalar_type(window))
    for off in range(-half, half + 1):
        dst = slice(max(0, -off), n - max(0, off))
        src = slice(max(0, off), n - max(0, -off))
        sums[dst] += values[src]
        counts[dst] += ones[src]
    # Empty windows divide 0/0 and land on NaN directly — no fill pass.
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.divide(sums, counts, dtype=rssi.dtype, out=out)


def strongest_beacon(rssi: np.ndarray) -> np.ndarray:
    """Index of the loudest beacon per frame; -1 where nothing is heard."""
    rssi = np.asarray(rssi)
    filled = np.where(np.isnan(rssi), -np.inf, rssi)
    best = np.argmax(filled, axis=1).astype(np.int64)
    # A frame is silent iff even its argmax cell is -inf — one gather
    # instead of a second full isfinite scan of the matrix.
    silent = filled[np.arange(filled.shape[0]), best] == -np.inf
    best[silent] = -1
    return best
