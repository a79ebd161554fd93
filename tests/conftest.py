"""Shared fixtures: one short mission simulated once per session.

The 5-day mission keeps every scripted event that fits (death day 4,
badge swap day 3, badge reuse day 5) so integration tests can exercise
the anomalies without paying for the full 14 days.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MissionConfig, ScriptedEventsConfig
from repro.crew.behavior import simulate_mission
from repro.experiments.mission import run_mission


#: The session mission; ``tests/golden`` pins its outputs byte for byte.
SESSION_MISSION = MissionConfig(
    days=5,
    seed=11,
    events=ScriptedEventsConfig(
        death_day=4,
        badge_swap_day=3,
        badge_reuse_day=5,
        famine_day=11,      # outside the short mission; auto-skipped
        reprimand_day=12,   # outside the short mission; auto-skipped
    ),
)


@pytest.fixture(scope="session")
def mission_cfg() -> MissionConfig:
    return SESSION_MISSION


@pytest.fixture(scope="session")
def truth(mission_cfg):
    return simulate_mission(mission_cfg)


@pytest.fixture(scope="session")
def result(mission_cfg, truth):
    return run_mission(mission_cfg, truth=truth)


@pytest.fixture(scope="session")
def sensing(result):
    return result.sensing


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _reset_telemetry():
    """Keep the process-global telemetry stores from leaking across tests."""
    from repro import obs

    yield
    obs.reset()
