"""repro: a reproduction of "30 Sensors to Mars" (ICDCS 2019).

A simulated distributed sociometric sensing system for analog space
habitats: habitat and crew simulation, wearable badge and radio models,
the localization/speech/mobility analytics of the paper's Section V, and
a prototype of the Section VI mission support system.

Quickstart::

    from repro import ExecutionConfig, MissionConfig, run_mission, build_table1
    result = run_mission(
        MissionConfig(days=5, seed=7),
        execution=ExecutionConfig(n_workers=4, cache_dir=".repro-cache"),
    )
    print(build_table1(result))
"""

from repro import obs
from repro.core.config import ExecutionConfig, MissionConfig, ScriptedEventsConfig
from repro.exec import MissionCache
from repro.faults import FaultCampaign, FaultPlan, ReliabilityReport, run_support_scenario
from repro.crew.behavior import simulate_mission
from repro.crew.roster import icares_roster
from repro.experiments.figures import fig2, fig3, fig4, fig5, fig6
from repro.experiments.mission import MissionResult, run_mission
from repro.experiments.tables import (
    build_deployment_stats,
    build_section5_claims,
    build_table1,
)
from repro.habitat.floorplan import lunares_floorplan
from repro.reliability import (
    ReliabilityModel,
    ReliabilityPrediction,
    ValidationResult,
    sweep_regimes,
    validate_campaign,
)

__version__ = "1.0.0"

__all__ = [
    "ExecutionConfig",
    "FaultCampaign",
    "FaultPlan",
    "MissionCache",
    "MissionConfig",
    "MissionResult",
    "ReliabilityModel",
    "ReliabilityPrediction",
    "ReliabilityReport",
    "ScriptedEventsConfig",
    "ValidationResult",
    "__version__",
    "build_deployment_stats",
    "build_section5_claims",
    "build_table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "icares_roster",
    "lunares_floorplan",
    "obs",
    "run_mission",
    "run_support_scenario",
    "simulate_mission",
    "sweep_regimes",
    "validate_campaign",
]
