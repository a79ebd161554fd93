"""``cold_mission``: serial, uncached 3-day paper-config missions, each
followed by Figures 2-6, Table I, the Section V claims and the deployment
statistics.  One client, closed loop: the next mission starts when the
last table of the previous one is built.

This is the ROADMAP's unit of work and what a researcher waits on; crew
simulation does most of it, and it never touches the cache, the journal
or the service.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from perfbench import checks, hooks
from perfbench.common import Measured, timed_probe
from perfbench.digest import digest
from perfbench.host import probe_s
from perfbench.missions import mission_seeds, paper_config
from perfbench.spans import REQUEST, Tracer, clock

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Requests every phase completes whatever its time budget, so traced and
#: untraced runs of one seed digest the same outputs.
DIGEST_REQUESTS = 2

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")


def setup(seed: int, work: Path, repeats: int,
          traced: bool = False) -> tuple[list[float], None]:
    """Time ``repeats`` fresh-interpreter set-ups, then import in-process."""
    samples = [timed_probe(["cold_mission", "--seed", str(next(mission_seeds(seed)))])
               for _ in range(repeats)]
    import repro.experiments.mission  # noqa: F401
    return samples, None


def close(session) -> None:
    pass


def analyse(result) -> dict:
    """Every figure and table of the paper, through the builders' modules
    so a traced run sees the calls."""
    from repro.experiments import figures, tables

    out = {name: getattr(figures, name)(result) for name in FIGURES}
    out["table1"] = tables.build_table1(result)
    out["section5"] = tables.build_section5_claims(result)
    out["deployment"] = tables.build_deployment_stats(result)
    return out


def measure(session, seed: int, work: Path, seconds: float,
            tracer: Optional[Tracer] = None) -> Measured:
    from repro.experiments import mission as mission_mod

    uninstall = hooks.install(tracer, hooks.DRIVER) if tracer else None
    out = Measured()
    try:
        for index, mission_seed in enumerate(mission_seeds(seed)):
            if out.wall_s >= seconds and out.attempted >= DIGEST_REQUESTS:
                break
            cfg = paper_config(mission_seed)
            scope = (tracer.span(REQUEST, request=f"mission-{mission_seed}")
                     if tracer else nullcontext())
            t0 = clock()
            with scope:
                result = mission_mod.run_mission(cfg, quality="gate")
                analyses = analyse(result)
            latency = clock() - t0
            out.wall_s += latency
            out.record(
                index, latency, len(result.sensing.summaries),
                checks.check_mission(result, analyses),
                digest((result.sensing.summaries, result.sensing.pairwise, analyses)))
            out.probes.append(probe_s())
    finally:
        if uninstall:
            uninstall()
    if tracer:
        out.spans = list(tracer.spans)
    return out
