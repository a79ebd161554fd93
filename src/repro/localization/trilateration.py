"""In-room position estimation from beacon RSSI.

Each frame starts at the RSSI-weighted centroid of the detected room's
beacons.  By default (``Localizer(refine=True)``) six damped
Gauss-Newton steps then fit the position to the ranges the log-distance
model inverts from each heard beacon.  The centroid alone pulls every
estimate toward the beacons' hull and erases Figure 3's contrast between
a center-bound crew member and the rest; the least-squares fit recovers
positions near walls and corners.

The solve runs beacon-major: a room's block is ``(k, frames)`` for its
k beacons, so every elementwise op streams over contiguous frames.
Elementwise ops give the same bits in either layout; the per-frame sums
over beacons do not, so they go through :func:`_sum_beacons` and
:func:`_dot_beacons`.  Up to :data:`SEQUENTIAL_BEACONS` columns they add
the beacons in sequence from +0, which is the order ``einsum`` and
``sum(axis=1)`` use on a frame-major ``(frames, k)`` block; wider blocks
make that frame-major call on a transposed copy.  Either way every
output byte equals the frame-major solve's.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigError


def localize_rooms(
    rssi: np.ndarray,
    rooms: np.ndarray,
    beacon_xy: np.ndarray,
    beacon_room: np.ndarray,
    tx_power_dbm: float = -59.0,
    path_loss_exponent: float = 2.2,
    refine: bool = True,
    iterations: int = 6,
    damping: float = 1e-2,
    weight_power: float = 2.0,
) -> np.ndarray:
    """Room-compacted weighted centroid plus optional Gauss-Newton pass.

    Only the detected room's beacons may contribute to a frame's
    estimate.  Rather than masking the full ``beacons``-wide scan matrix
    (with ~3 beacons per room that is ~10x wasted work), this gathers,
    per detected room, only the frames in that room and only that
    room's beacon columns, runs the centroid and the refinement on the
    compact beacon-major block, and scatters the estimates back.  Frames
    may come from any number of badge-days stacked along axis 0 — every
    step is row-independent, so batching badges cannot change any row's
    result.  (No sum goes through ``@``: BLAS picks size-dependent
    kernels, which would break that.)
    Rows hearing fewer than two in-room beacons keep their centroid.

    Args:
        rssi: ``(frames, beacons)`` scan matrix (NaN = not heard).
        rooms: ``(frames,)`` detected room per frame; negative = unknown.
        beacon_xy: ``(beacons, 2)`` surveyed positions.
        beacon_room: ``(beacons,)`` room index per beacon.
        tx_power_dbm, path_loss_exponent, weight_power: ranging model.
        refine: run the Gauss-Newton refinement after the centroid.
        iterations, damping: refinement parameters.

    Returns:
        ``(frames, 2)`` float32 estimates; NaN where no room or no
        usable in-room beacon.  The solve runs in float32 — sub-dB
        scan noise swamps the last float bits, and the pipeline stores
        positions as float32 anyway.
    """
    if path_loss_exponent <= 0:
        raise ConfigError("path_loss_exponent must be positive")
    n = rssi.shape[0]
    out = np.full((n, 2), np.nan, dtype=np.float32)
    zero = np.float32(0.0)
    for room_idx in np.unique(rooms):
        if room_idx < 0:
            continue
        cols = np.flatnonzero(beacon_room == room_idx)
        if cols.size == 0:
            continue
        rows = np.flatnonzero(rooms == room_idx)
        # Beacon-major (k, rows) block: every op below streams over
        # contiguous frames.
        sub = np.ascontiguousarray(rssi[np.ix_(rows, cols)].T, dtype=np.float32)
        usable = ~np.isnan(sub)
        d = np.float32(10.0) ** (
            (tx_power_dbm - np.where(usable, sub, zero))
            / np.float32(10.0 * path_loss_exponent)
        )
        w = np.where(usable, 1.0 / np.maximum(d, np.float32(0.05)) ** weight_power, zero)
        total = _sum_beacons(w)
        ok = total > 0
        bx = beacon_xy[cols, 0].astype(np.float32)[:, None]
        by = beacon_xy[cols, 1].astype(np.float32)[:, None]
        x = np.full(rows.size, np.nan, dtype=np.float32)
        y = np.full(rows.size, np.nan, dtype=np.float32)
        w_ok = w[:, ok]
        x[ok] = _sum_beacons(w_ok * bx) / total[ok]
        y[ok] = _sum_beacons(w_ok * by) / total[ok]
        if refine:
            live = ok & (usable.sum(axis=0) >= 2)
            # Rows that hear *every* in-room beacon (virtually all of
            # them after smoothing) take an unweighted fast path: with
            # cw == 1 everywhere, dropping the weight multiplies changes
            # no bits (x * 1.0f == x).  The few partial rows keep the
            # general weighted loop.  Both splits are per-row decisions,
            # so batching cannot change any row's path or result.
            full = live & usable.all(axis=0)
            part = live & ~full
            for mask, weighted in ((full, False), (part, True)):
                if not mask.any():
                    continue
                cw = usable[:, mask].astype(np.float32) if weighted else None
                cr = d[:, mask]
                cx = x[mask]
                cy = y[mask]
                shape = cr.shape
                dx = np.empty(shape, dtype=np.float32)
                dy = np.empty(shape, dtype=np.float32)
                dist = np.empty(shape, dtype=np.float32)
                residual = np.empty(shape, dtype=np.float32)
                jx = np.empty(shape, dtype=np.float32)
                jy = np.empty(shape, dtype=np.float32)
                for _ in range(iterations):
                    np.subtract(cx, bx, out=dx)
                    np.subtract(cy, by, out=dy)
                    np.multiply(dx, dx, out=dist)
                    np.multiply(dy, dy, out=jx)  # jx doubles as a scratch
                    dist += jx
                    np.sqrt(dist, out=dist)
                    np.maximum(dist, np.float32(1e-6), out=dist)
                    np.subtract(dist, cr, out=residual)
                    np.divide(np.float32(1.0), dist, out=dist)  # now 1/dist
                    np.multiply(dx, dist, out=jx)
                    np.multiply(dy, dist, out=jy)
                    if weighted:
                        residual *= cw
                        wjx = cw * jx
                        wjy = cw * jy
                    else:
                        wjx = jx
                        wjy = jy
                    a = _dot_beacons(wjx, jx) + damping
                    b = _dot_beacons(wjx, jy)
                    dd = _dot_beacons(wjy, jy) + damping
                    gx = _dot_beacons(jx, residual)
                    gy = _dot_beacons(jy, residual)
                    det = a * dd - b * b
                    det = np.where(np.abs(det) < 1e-12, 1e-12, det)
                    cx -= (dd * gx - b * gy) / det
                    cy -= (a * gy - b * gx) / det
                x[mask] = cx
                y[mask] = cy
        out[rows, 0] = x
        out[rows, 1] = y
    return out


#: Widest block whose per-frame reductions add the beacons in sequence.
#: ``einsum`` and ``sum(axis=1)`` over a frame-major ``(frames, k)``
#: block add ``+0, p0, p1, p2`` in that order for k <= 3; at 4 columns
#: ``einsum`` pairs them, so wider blocks make the frame-major call.
SEQUENTIAL_BEACONS = 3


def _sum_beacons(a: np.ndarray) -> np.ndarray:
    """``a.T.sum(axis=1)`` of a beacon-major ``(k, frames)`` block, bit for bit."""
    if len(a) > SEQUENTIAL_BEACONS:
        return np.ascontiguousarray(a.T).sum(axis=1)
    acc = a[0] + np.float32(0.0)  # the +0 start turns a -0 sum into +0
    for j in range(1, len(a)):
        acc += a[j]
    return acc


def _dot_beacons(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum("ij,ij->i", a.T, b.T)`` of beacon-major blocks, bit for bit."""
    if len(a) > SEQUENTIAL_BEACONS:
        return np.einsum(
            "ij,ij->i", np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    acc = a[0] * b[0]
    acc += np.float32(0.0)  # the +0 start turns a -0 sum into +0
    for j in range(1, len(a)):
        acc += a[j] * b[j]
    return acc
