"""Core simulation kernel for the ``repro`` library.

This subpackage is paper-agnostic infrastructure: a discrete-event
simulation engine, simulated clocks (including Martian time, which the
ICAres-1 crew lived on), deterministic named random-number streams,
interval/time-series containers used throughout the sensing pipeline,
and configuration dataclasses.
"""

from repro.core.clock import EARTH_DAY_S, MARS_SOL_S, ClockModel, MartianClock, MissionClock
from repro.core.config import MissionConfig, ScriptedEventsConfig
from repro.core.engine import Event, Simulator
from repro.core.errors import ConfigError, ReproError, SimulationError
from repro.core.intervals import IntervalSet
from repro.core.rng import RngRegistry, stable_hash
from repro.core.timeseries import TimeSeries

__all__ = [
    "EARTH_DAY_S",
    "MARS_SOL_S",
    "ClockModel",
    "ConfigError",
    "Event",
    "IntervalSet",
    "MartianClock",
    "MissionClock",
    "MissionConfig",
    "ReproError",
    "RngRegistry",
    "ScriptedEventsConfig",
    "SimulationError",
    "Simulator",
    "TimeSeries",
    "stable_hash",
]
