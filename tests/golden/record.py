"""Golden digests: checked-in bytes that pin the pipeline's outputs.

Data pins behaviour, not a second implementation: ``golden.json`` holds
a digest of every crew-truth array of every astronaut-day, every
per-badge-day summary field, every pairwise array, the SD-card total,
the cache fingerprints and ``SCHEMA_VERSION`` of three missions, the
top-3 regimes of both reliability sweeps, and the position solve on a
synthetic input for each of 1-5 beacons per room.  The test
beside this module recomputes them; an output may change only together
with a ``SCHEMA_VERSION`` bump and a re-recording.

numpy's AVX512 loops round a few transcendental results (``voice_db``,
``sound_db``, ``x``, ``y``, sweep scores) differently in the last bit
from its AVX2 and baseline loops, so each key lists every digest
accepted for it.  Recording merges into the file; record once per SIMD
class::

    PYTHONPATH=src python -m tests.golden.record
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" \\
        PYTHONPATH=src python -m tests.golden.record

After a ``SCHEMA_VERSION`` bump, delete ``golden.json`` first.  The
file was recorded with numpy 2.4.6; a numpy release whose loops round
differently adds its digests the same way, without a schema bump.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.config import MissionConfig
from repro.exec import hashing
from repro.faults.campaign import FaultCampaign
from repro.localization.trilateration import localize_rooms
from repro.reliability.coverage import CoverageModel
from repro.reliability.search import sweep_regimes

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: A 3-day mission with battery, SD-card-cap and beacon-outage faults.
FAULTS_MISSION = MissionConfig(
    days=3, seed=5, frame_dt=5.0, events=None,
    fault_plan=FaultCampaign.reference(days=3, seed=1).generate(),
)

#: A fleet-service job as the benchmark submits it: 2 days, 2 h of
#: daytime, 5 s frames, no events.  Short days carry the most
#: co-location segments per frame, so this mission pins the
#: conversation model's per-segment path hardest.
FLEET_MISSION = MissionConfig(
    days=2, seed=7, daytime_hours=2.0, frame_dt=5.0, events=None,
)

#: The crew-truth arrays of a :class:`~repro.crew.trace.DayTrace`, pinned
#: per astronaut-day.
TRUTH_FIELDS = (
    "room", "x", "y", "walking", "speaking", "loudness", "machine_speech", "activity",
)

#: Sweep seed and size of the golden top-3 regimes (default bases).
SWEEP_SEED = 0
SWEEP_REGIMES = 64

#: Beacons per room of the pinned position solves.  The shipped
#: deployments have 1-3 (12 and 27 beacons); 4 and 5 take the solve's
#: frame-major reductions.
SOLVE_BEACONS = (1, 2, 3, 4, 5)


def _digest_value(value) -> str:
    h = hashlib.blake2b(digest_size=16)
    if isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode())
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def mission_digests(name: str, result) -> dict[str, str]:
    """``{key: digest}`` of one mission result, keys prefixed by ``name``."""
    out: dict[str, str] = {}
    for (badge_id, day), summary in result.sensing.summaries.items():
        for f in dataclasses.fields(summary):
            key = f"{name}/day{day}/badge{badge_id}/{f.name}"
            out[key] = _digest_value(getattr(summary, f.name))
    for day, pairwise in result.sensing.pairwise.items():
        for channel in ("subghz_rssi", "ir_contact"):
            for (i, j), array in getattr(pairwise, channel).items():
                out[f"{name}/day{day}/{channel}/{i}-{j}"] = _digest_value(array)
    for (astro, day), trace in result.truth.traces.items():
        for field in TRUTH_FIELDS:
            out[f"{name}/day{day}/truth/{astro}/{field}"] = _digest_value(
                getattr(trace, field))
    cfg = result.cfg
    out[f"{name}/sdcard_total_bytes"] = _digest_value(result.sdcard.total_bytes())
    out[f"{name}/truth_fingerprint"] = hashing.truth_fingerprint(cfg)
    out[f"{name}/sensing_fingerprint"] = hashing.sensing_fingerprint(cfg)
    return out


def sweep_digests() -> dict[str, str]:
    """``{key: digest}`` of both sweeps' top-3 regimes, field by field."""
    out: dict[str, str] = {}
    sweeps = {
        "ctmc": sweep_regimes(n_regimes=SWEEP_REGIMES, seed=SWEEP_SEED, top_k=3),
        "coverage": sweep_regimes(n_regimes=SWEEP_REGIMES, seed=SWEEP_SEED,
                                  top_k=3, model=CoverageModel),
    }
    for kind, regimes in sweeps.items():
        for regime in regimes:
            prefix = f"sweep/{kind}/rank{regime.rank}"
            out[f"{prefix}/type"] = type(regime).__name__
            for field, value in regime.to_dict().items():
                out[f"{prefix}/{field}"] = _digest_value(
                    json.dumps(value, sort_keys=True))
    return out


def solve_input(k: int) -> tuple[np.ndarray, ...]:
    """A seeded ``localize_rooms`` input: 3 rooms of ``k`` beacons, 25% NaN
    cells, unknown rows and rows in room 3, which has no beacons."""
    rng = np.random.default_rng(k)
    frames, n_rooms = 2000, 3
    beacon_room = np.repeat(np.arange(n_rooms), k)
    beacon_xy = np.column_stack([
        5.0 * beacon_room + rng.uniform(0.0, 4.0, beacon_room.size),
        rng.uniform(0.0, 4.0, beacon_room.size),
    ])
    rooms = rng.integers(-1, n_rooms + 1, size=frames).astype(np.int8)
    xy = np.column_stack([
        5.0 * np.clip(rooms, 0, n_rooms - 1) + rng.uniform(0.0, 4.0, frames),
        rng.uniform(0.0, 4.0, frames),
    ])
    dist = np.hypot(xy[:, None, 0] - beacon_xy[None, :, 0],
                    xy[:, None, 1] - beacon_xy[None, :, 1])
    rssi = -59.0 - 22.0 * np.log10(np.maximum(dist, 0.1))
    rssi = (rssi + rng.normal(0.0, 3.0, rssi.shape)).astype(np.float32)
    rssi[rng.random(rssi.shape) < 0.25] = np.nan
    return rssi, rooms, beacon_xy, beacon_room


def solve_digests() -> dict[str, str]:
    """``{key: digest}`` of the position solve, per beacons-per-room count,
    with and without the Gauss-Newton refinement."""
    out: dict[str, str] = {}
    for k in SOLVE_BEACONS:
        args = solve_input(k)
        for refine in (False, True):
            out[f"localization/k{k}/refine{int(refine)}"] = _digest_value(
                localize_rooms(*args, refine=refine))
    return out


def load() -> dict:
    """The checked-in golden file."""
    return json.loads(GOLDEN_PATH.read_text())


def main() -> int:
    from repro.experiments.mission import run_mission
    from tests.conftest import SESSION_MISSION

    observed = {"schema_version": str(hashing.SCHEMA_VERSION)}
    missions = (("session", SESSION_MISSION), ("faults", FAULTS_MISSION),
                ("fleet", FLEET_MISSION))
    for name, cfg in missions:
        observed.update(mission_digests(name, run_mission(cfg)))
    observed.update(sweep_digests())
    observed.update(solve_digests())

    accepted: dict[str, list[str]] = load() if GOLDEN_PATH.exists() else {}
    added = 0
    for key, value in observed.items():
        values = accepted.setdefault(key, [])
        if value not in values:
            values.append(value)
            added += 1
    GOLDEN_PATH.write_text(json.dumps(accepted, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN_PATH.name}: {len(observed)} keys, {added} digests added")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
