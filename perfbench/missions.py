"""Mission configurations the workloads run, derived from the workload seed."""

from __future__ import annotations

import random
from typing import Iterator


def paper_config(seed: int):
    """A 3-day paper-config mission whose scripted death falls on day 3,
    so the consolation path and the Figure 5 timeline have content."""
    from repro.core.config import MissionConfig, ScriptedEventsConfig

    return MissionConfig(days=3, seed=seed, events=ScriptedEventsConfig(death_day=3))


def tiny_config(seed: int):
    """A fleet-service job: 2 days, 2 h of daytime, 5 s frames, no events."""
    from repro.core.config import MissionConfig

    return MissionConfig(days=2, seed=seed, daytime_hours=2.0, frame_dt=5.0, events=None)


def mission_seeds(workload_seed: int) -> Iterator[int]:
    """The mission seeds a workload seed stands for, in order."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(1, 2**31)
