"""Timing wrappers installed around the public entry points of each layer.

Every hook wraps one callable under the name its caller binds: a module
global such as ``repro.experiments.mission.simulate_mission`` (the name
``run_mission`` calls), or a method on its class.  The program itself is
not changed; :func:`install` swaps the attribute and returns a function
that puts the original back.

A hook may name the request its span serves (the service's
``execute_job`` knows the job id) and count the work that crossed the
boundary (badge-days sensed, cache hits, bytes stored), so per-layer
ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Callable, Optional

from perfbench.spans import Tracer


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``module:attr`` or ``module:Class.method``."""

    target: str
    span: str
    #: ``(args, kwargs) -> request id`` for spans that start a request's
    #: work in another process.
    request_of: Optional[Callable] = None
    #: ``(args, kwargs, result) -> {name: count}`` recorded on the span.
    count_of: Optional[Callable] = None


def _fixes(args, kwargs, result) -> dict:
    actives = args[2] if len(args) > 2 else kwargs["actives"]
    fixed = sum(int(((loc.room >= 0) & act).sum()) for loc, act in zip(result, actives))
    return {"active_frames": sum(int(a.sum()) for a in actives), "fixes": fixed}


def _lookup(args, kwargs, result) -> dict:
    return {"lookups": 1, "hits": int(result is not None)}


def _stored_truth(args, kwargs, result) -> dict:
    cache, cfg = args[0], args[1]
    return {"bytes": cache.truth_path(cfg).stat().st_size}


def _stored_day(args, kwargs, result) -> dict:
    cache, cfg, outcome = args[0], args[1], args[2]
    return {"bytes": cache.day_path(cfg, outcome.day).stat().st_size}


def _verdicts(args, kwargs, result) -> dict:
    report = result[1]
    return {"verdicts": len(report.verdicts), "ok": report.n_ok}


#: The mission pipeline below ``run_mission``; installed in every process
#: that runs missions.
PIPELINE = (
    Hook("repro.experiments.mission:simulate_mission", "crew.simulate_mission"),
    Hook("repro.crew.movement:MovementModel.fill_day", "crew.movement",
         count_of=lambda a, k, r: {"astronaut_days": 1}),
    Hook("repro.crew.conversation:ConversationModel.generate", "crew.conversation"),
    Hook("repro.experiments.mission:compute_day", "exec.compute_day"),
    Hook("repro.exec.executor:sense_day", "badges.sense_day",
         count_of=lambda a, k, r: {"badge_days": len(r[0])}),
    Hook("repro.radio.ble:BleScanModel.scan_fleet", "radio.ble_scan"),
    Hook("repro.localization.pipeline:Localizer.localize_fleet",
         "localization.localize_fleet", count_of=_fixes),
    Hook("repro.exec.cache:MissionCache.load_truth", "exec.cache_load", count_of=_lookup),
    Hook("repro.exec.cache:MissionCache.load_day", "exec.cache_load", count_of=_lookup),
    Hook("repro.exec.cache:MissionCache.store_truth", "exec.cache_store",
         count_of=_stored_truth),
    Hook("repro.exec.cache:MissionCache.store_day", "exec.cache_store",
         count_of=_stored_day),
    Hook("repro.exec.checkpoint:CheckpointJournal.record", "exec.journal_record"),
    Hook("repro.exec.checkpoint:CheckpointJournal.load_completed", "exec.journal_load"),
    Hook("repro.experiments.mission:gate_sensing", "quality.gate", count_of=_verdicts),
)

#: The benchmark process as the caller of ``run_mission`` and the
#: figure and table builders (``cold_mission``, ``sensing_sweep``).
DRIVER = PIPELINE + (
    Hook("repro.experiments.mission:run_mission", "experiments.run_mission"),
    Hook("repro.experiments.figures:fig2", "analytics.fig2"),
    Hook("repro.experiments.figures:fig3", "analytics.fig3"),
    Hook("repro.experiments.figures:fig4", "analytics.fig4"),
    Hook("repro.experiments.figures:fig5", "analytics.fig5"),
    Hook("repro.experiments.figures:fig6", "analytics.fig6"),
    Hook("repro.experiments.tables:build_table1", "analytics.table1"),
    Hook("repro.experiments.tables:build_section5_claims", "analytics.section5"),
    Hook("repro.experiments.tables:build_deployment_stats", "analytics.deployment_stats"),
)

#: The benchmark process as a fleet-service client (``fleet_service``).
CLIENT = (
    Hook("repro.service.client:FleetClient.submit", "service.submit"),
    Hook("repro.service.client:FleetClient.result", "service.result"),
)

#: The service process, installed by ``perfbench/service_launcher.py``.
SERVICE = PIPELINE + (
    Hook("repro.service.worker:execute_job", "service.execute_job",
         request_of=lambda a, k: a[0].job_id),
    Hook("repro.service.worker:run_mission", "experiments.run_mission"),
    Hook("repro.service.registry:MissionRegistry.complete", "service.complete",
         request_of=lambda a, k: a[1]),
)


def _resolve(target: str) -> tuple[object, str, Callable]:
    """``(owner, attribute, current value)`` of a hook target.

    A target a refactor moved or removed fails the traced run by name,
    rather than leaving its layer silently unmeasured.
    """
    module_name, _, path = target.partition(":")
    *parents, attr = path.split(".")
    try:
        owner: object = importlib.import_module(module_name)
        for name in parents:
            owner = getattr(owner, name)
        value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(
            f"hook target {target} not found; update perfbench/hooks.py") from exc
    return owner, attr, value


def wrap(tracer: Tracer, fn: Callable, hook: Hook) -> Callable:
    """``fn`` timed as one span named ``hook.span``."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        request = hook.request_of(args, kwargs) if hook.request_of else None
        with tracer.span(hook.span, request=request) as sp:
            result = fn(*args, **kwargs)
            if hook.count_of is not None:
                sp.counts.update(hook.count_of(args, kwargs, result))
            return result

    return timed


def install(tracer: Tracer, hooks: tuple[Hook, ...]) -> Callable[[], None]:
    """Wrap every hook's target; returns the function that unwraps them."""
    saved = [(hook, *_resolve(hook.target)) for hook in hooks]
    for hook, owner, attr, original in saved:
        setattr(owner, attr, wrap(tracer, original, hook))

    def uninstall() -> None:
        for _hook, owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
