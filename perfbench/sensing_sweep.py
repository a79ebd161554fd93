"""``sensing_sweep``: one ground truth, simulated and cached during
set-up, sensed under wear compliance {0.9, 0.6, 0.3} x beacons {27, 12}.
One request is one variant; one client, closed loop, and every run
sweeps the six variants a whole number of times.

Each variant runs the default stack with ``quality="gate"`` against a
fresh day cache that holds only the truth, so the truth is always a cache
hit and crew simulation does no work: sensing and localization dominate.
Beacon count and wear compliance are the two input properties that set
the cost of a day.  A crew change should leave this workload unchanged.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, Optional

from perfbench import checks, hooks
from perfbench.common import Measured, timed_probe
from perfbench.digest import digest
from perfbench.host import probe_s
from perfbench.missions import mission_seeds, paper_config
from perfbench.spans import REQUEST, Tracer, clock

#: (wear compliance, beacons) in the order every run sweeps them.
VARIANTS = tuple((wear, beacons) for wear in (0.9, 0.6, 0.3) for beacons in (27, 12))

#: Set-ups per untraced run (each simulates the truth); ``setup_s`` is
#: their median.
SETUP_REPEATS = 3

#: Variants every phase completes (one whole sweep), so traced and
#: untraced runs digest the same outputs.
DIGEST_REQUESTS = len(VARIANTS)


@dataclasses.dataclass
class Session:
    cfg: object
    truth_file: Path


def setup(seed: int, work: Path, repeats: int,
          traced: bool = False) -> tuple[list[float], Session]:
    """Simulate and cache the truth ``repeats`` times in fresh interpreters;
    the sweep reads the last cache."""
    from repro.exec.cache import MissionCache

    mission_seed = next(mission_seeds(seed))
    samples = []
    for _ in range(repeats):
        cache = Path(tempfile.mkdtemp(dir=work, prefix="setup"))
        samples.append(timed_probe(
            ["sensing_sweep", "--seed", str(mission_seed), "--cache", str(cache)]))
    cfg = paper_config(mission_seed)
    return samples, Session(cfg, MissionCache(cache).truth_path(cfg))


def close(session: Session) -> None:
    pass


def variant_config(cfg, wear: float, beacons: int):
    return dataclasses.replace(
        cfg, n_beacons=beacons, wear_compliance_start=wear, wear_compliance_end=wear)


@contextmanager
def _counted_simulations() -> Iterator[list]:
    """Count calls of the crew simulation ``run_mission`` makes; a sweep
    variant must read its truth from the cache and make none."""
    from repro.experiments import mission as mission_mod

    original = mission_mod.simulate_mission
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    mission_mod.simulate_mission = counted
    try:
        yield calls
    finally:
        mission_mod.simulate_mission = original


def measure(session: Session, seed: int, work: Path, seconds: float,
            tracer: Optional[Tracer] = None) -> Measured:
    from repro.core.config import ExecutionConfig
    from repro.experiments import mission as mission_mod

    out = Measured()
    index = 0
    with _counted_simulations() as simulations:
        uninstall = hooks.install(tracer, hooks.DRIVER) if tracer else None
        try:
            while True:
                # Whole sweeps only, so every run weighs the variants alike:
                # stop at the sweep boundary nearest to ``seconds``.
                if index >= DIGEST_REQUESTS and index % len(VARIANTS) == 0:
                    if out.wall_s * (index + len(VARIANTS) / 2) / index > seconds:
                        break
                wear, beacons = VARIANTS[index % len(VARIANTS)]
                cfg = variant_config(session.cfg, wear, beacons)
                cache = Path(tempfile.mkdtemp(dir=work, prefix="variant"))
                os.link(session.truth_file, cache / session.truth_file.name)
                execution = ExecutionConfig(n_workers="serial", cache_dir=str(cache))
                scope = (tracer.span(REQUEST, request=f"{index}:wear{wear}/beacons{beacons}")
                         if tracer else nullcontext())
                simulated = len(simulations)
                t0 = clock()
                with scope:
                    result = mission_mod.run_mission(cfg, execution=execution,
                                                     quality="gate")
                latency = clock() - t0
                out.wall_s += latency
                out.record(
                    index, latency, len(result.sensing.summaries),
                    checks.check_variant(result, beacons, len(simulations) - simulated),
                    digest((result.sensing.summaries, result.sensing.pairwise,
                            result.quality.to_dict() if result.quality else None)))
                out.extra["quarantined"] = out.extra.get("quarantined", 0) + sum(
                    result.cache_stats["quarantined"].values())
                shutil.rmtree(cache)
                out.probes.append(probe_s())
                index += 1
        finally:
            if uninstall:
                uninstall()
    if tracer:
        out.spans = list(tracer.spans)
    return out
