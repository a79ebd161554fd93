"""One workload set-up in a fresh interpreter, so set-up can be timed
several times per run: imports, model construction and, for the sensing
sweep, simulating and caching the ground truth.

    python3 perfbench/setup_probe.py cold_mission --seed 1
    python3 perfbench/setup_probe.py sensing_sweep --seed 1 --cache DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=("cold_mission", "sensing_sweep"))
    parser.add_argument("--seed", type=int, required=True, help="mission seed")
    parser.add_argument("--cache", help="mission cache to store the truth in")
    args = parser.parse_args(argv)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]  # not this directory

    import repro.experiments.figures  # noqa: F401  the analyses a mission feeds
    import repro.experiments.tables  # noqa: F401
    from repro.badges.pipeline import SensingModels
    from repro.crew.behavior import simulate_mission
    from repro.exec.cache import MissionCache
    from repro.habitat.floorplan import lunares_floorplan
    from repro.localization.pipeline import Localizer

    from perfbench.missions import paper_config

    cfg = paper_config(args.seed)
    plan = lunares_floorplan()
    models = SensingModels.default(cfg, plan)
    Localizer(plan, models.beacons)
    if args.workload == "sensing_sweep":
        MissionCache(args.cache).store_truth(cfg, simulate_mission(cfg, plan=plan))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
