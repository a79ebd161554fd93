"""In-room position estimation from beacon RSSI.

The default estimator is an RSSI-weighted centroid over the detected
room's beacons — fast, vectorizable, and accurate to a few tens of
centimeters with three beacons per room.  A Gauss-Newton least-squares
refinement over inverted log-distance ranges is available for the
ablation study (it buys little inside small rooms, matching the paper's
remark that inertial fusion was unnecessary).
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
    compact block, and scatters the estimates back.  Frames may come
    from any number of badge-days stacked along axis 0 — every step is
    row-independent, so batching badges cannot change any row's result.
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
        sub = rssi[np.ix_(rows, cols)].astype(np.float32, copy=False)
        usable = ~np.isnan(sub)
        d = np.float32(10.0) ** (
            (tx_power_dbm - np.where(usable, sub, zero))
            / np.float32(10.0 * path_loss_exponent)
        )
        w = np.where(usable, 1.0 / np.maximum(d, np.float32(0.05)) ** weight_power, zero)
        total = w.sum(axis=1)
        ok = total > 0
        bx = beacon_xy[cols, 0].astype(np.float32)
        by = beacon_xy[cols, 1].astype(np.float32)
        x = np.full(rows.size, np.nan, dtype=np.float32)
        y = np.full(rows.size, np.nan, dtype=np.float32)
        # Explicit multiply-sum (not ``@``): BLAS picks size-dependent
        # matvec kernels, which would break bit-identity between a batch
        # of one and the same rows inside a fleet batch.
        x[ok] = (w[ok] * bx).sum(axis=1) / total[ok]
        y[ok] = (w[ok] * by).sum(axis=1) / total[ok]
        if refine:
            live = ok & (usable.sum(axis=1) >= 2)
            # Rows that hear *every* in-room beacon (virtually all of
            # them after smoothing) take an unweighted fast path: with
            # cw == 1 everywhere, dropping the weight multiplies changes
            # no bits (x * 1.0f == x).  The few partial rows keep the
            # general weighted loop.  Both splits are per-row decisions,
            # so batching cannot change any row's path or result.
            full = live & usable.all(axis=1)
            part = live & ~full
            for mask, weighted in ((full, False), (part, True)):
                if not mask.any():
                    continue
                cw = usable[mask].astype(np.float32) if weighted else None
                cr = d[mask]
                cx = x[mask]
                cy = y[mask]
                lbx = bx[None, :]
                lby = by[None, :]
                shape = cr.shape
                dx = np.empty(shape, dtype=np.float32)
                dy = np.empty(shape, dtype=np.float32)
                dist = np.empty(shape, dtype=np.float32)
                residual = np.empty(shape, dtype=np.float32)
                jx = np.empty(shape, dtype=np.float32)
                jy = np.empty(shape, dtype=np.float32)
                for _ in range(iterations):
                    np.subtract(cx[:, None], lbx, out=dx)
                    np.subtract(cy[:, None], lby, out=dy)
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
                    a = np.einsum("ij,ij->i", wjx, jx) + damping
                    b = np.einsum("ij,ij->i", wjx, jy)
                    dd = np.einsum("ij,ij->i", wjy, jy) + damping
                    gx = np.einsum("ij,ij->i", jx, residual)
                    gy = np.einsum("ij,ij->i", jy, residual)
                    det = a * dd - b * b
                    det = np.where(np.abs(det) < 1e-12, 1e-12, det)
                    cx -= (dd * gx - b * gy) / det
                    cy -= (a * gy - b * gx) / det
                x[mask] = cx
                y[mask] = cy
        out[rows, 0] = x
        out[rows, 1] = y
    return out
