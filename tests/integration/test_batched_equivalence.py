"""Batch-shape contract (DESIGN §13): batching never changes a badge's bytes.

Every fleet call draws per badge from that badge's own stream, in the
documented order, and keeps every reduction row-local.  So a badge run
as a batch of one must be byte-equal to its row in a multi-badge batch.
The golden digests in ``tests/golden`` pin what the bytes are; this
test pins that batch shape cannot move them.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.badges.pipeline import SensingModels
from repro.badges.sensors.microphone import SpeechSources
from repro.badges.wear import WearModel
from repro.localization.pipeline import Localizer

DAY = 2


@pytest.fixture(scope="module")
def shared(truth):
    """Inputs every badge shares: models, speech sources, day clock."""
    cfg, plan = truth.cfg, truth.plan
    models = SensingModels.default(cfg, plan)
    return SimpleNamespace(
        models=models,
        localizer=Localizer(plan, models.beacons),
        sources=SpeechSources.from_truth(truth, DAY),
        walls=plan.wall_matrix(),
        floors=np.array([models.env.noise_floor_db(r.name) for r in plan.rooms]),
        t_abs=cfg.daytime_start_s + np.arange(cfg.frames_per_day) * cfg.frame_dt,
    )


@pytest.fixture(scope="module")
def fleet(truth, shared):
    """Per-badge inputs of one day, stacked along axis 0."""
    wear_model = WearModel(truth.cfg, truth.plan, battery=shared.models.battery)
    traces = [truth.trace(astro, DAY) for astro in truth.roster.ids]
    wears = [wear_model.simulate_day(trace, np.random.default_rng(b))
             for b, trace in enumerate(traces)]
    fleet = {
        "xy": np.stack([w.badge_xy for w in wears]),
        "room": np.stack([w.badge_room for w in wears]),
        "active": np.stack([w.active for w in wears]),
        "worn": np.stack([w.worn for w in wears]),
        "walking": np.stack([t.walking for t in traces]),
        "activity": np.stack([t.activity for t in traces]),
    }
    fleet["scans"] = _scan(shared, fleet, _rngs(range(len(wears))))[0]
    return fleet


def _rngs(badges) -> list[np.random.Generator]:
    return [np.random.default_rng(100 + b) for b in badges]


def _scan(s, f, rngs):
    m = s.models
    return (m.ble.scan_fleet(m.plan, m.beacons, f["xy"], f["room"], f["active"], rngs),)


def _accelerometer(s, f, rngs):
    return (s.models.accelerometer.synthesize_fleet(
        f["walking"], f["worn"], f["active"], f["activity"], rngs),)


def _imu(s, f, rngs):
    return s.models.imu.synthesize_fleet(f["walking"], f["worn"], f["active"], rngs)


def _microphone(s, f, rngs):
    out = s.models.microphone.synthesize_fleet(
        s.sources, f["xy"], f["room"], f["active"], s.walls, s.floors, rngs)
    return tuple(vars(out).values())


def _environment(s, f, rngs):
    m = s.models
    return m.env_sensors.synthesize_fleet(
        m.env, m.plan, f["room"], f["worn"], f["active"], s.t_abs, rngs)


def _localize(s, f, rngs):
    results = s.localizer.localize_fleet(
        list(f["scans"]), list(f["active"]), dead_beacons=[0])
    return tuple(np.stack([getattr(r, name) for r in results])
                 for name in ("room", "x", "y"))


class TestBatchShape:
    @pytest.mark.parametrize("call", [
        _scan, _accelerometer, _imu, _microphone, _environment, _localize,
    ], ids=["scan_fleet", "accelerometer", "imu", "microphone", "environment",
            "localize_fleet"])
    def test_solo_equals_row(self, shared, fleet, call):
        n_badges = len(fleet["active"])
        assert n_badges > 1
        batch = call(shared, fleet, _rngs(range(n_badges)))
        for b in range(n_badges):
            one = {name: rows[b:b + 1] for name, rows in fleet.items()}
            solo = call(shared, one, _rngs([b]))
            for i, (rows, alone) in enumerate(zip(batch, solo, strict=True)):
                assert alone.shape[0] == 1
                assert rows[b].tobytes() == alone[0].tobytes(), (b, i)
