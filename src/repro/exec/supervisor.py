"""Worker supervision: deadlines, retries, and broken-pool recovery.

:func:`run_days_supervised` is the mission driver's one parallel path.
A bare pool ``map`` would lose the whole wave to one worker death; for a
long unattended sweep — the failure mode field deployments of distributed
instruments keep reporting — this wraps the bit-identical per-day work
(:func:`repro.exec.executor.compute_day`) in a supervision loop:

* **deadlines** — a day that runs longer than
  ``ExecutionConfig.day_deadline_s`` in a worker is treated as hung: the
  pool is torn down (SIGKILL on the stuck processes), completed days are
  salvaged, and the day is retried, up to ``max_day_retries`` times;
* **broken-pool recovery** — a crashed worker (OOM kill, segfault, an
  injected ``worker-crash`` fault) breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`; the supervisor
  salvages every future that already completed — handing each to the
  caller's ``on_outcome`` hook so it reaches the checkpoint journal and
  cache *before* anything else happens — then respawns the pool and
  resubmits only the unfinished days;
* **seeded-jitter backoff** — respawns back off exponentially with
  jitter drawn from a fixed-seed RNG, so retry storms desynchronize
  reproducibly;
* **bounded degradation** — after ``pool_failure_limit`` consecutive
  pool failures with no salvaged progress the supervisor raises
  :class:`~repro.exec.executor.ExecutorUnavailable` and the mission
  driver finishes the remaining days serially instead of aborting.
  Every outcome already handed to ``on_outcome`` is kept.

Genuine exceptions raised by the day computation itself are never
retried — they propagate unchanged, exactly as on the serial path.

Retries, timeouts, and fallbacks are all visible in telemetry
(``exec.retries``, ``exec.timeouts``, ``exec.pool_respawns`` counters and
``exec.supervise`` / ``exec.pool_wave`` spans): an unattended run that
limped through a night of worker crashes says so in its report.
"""

from __future__ import annotations

import concurrent.futures as cf
import time
from typing import Callable, Optional

import numpy as np

from repro.core.config import ExecutionConfig, MissionConfig
from repro.core.errors import ConfigError
from repro.exec.executor import (
    DayOutcome,
    ExecutorUnavailable,
    _worker_day,
    _worker_init,
    pickle_context,
)
from repro.badges.pipeline import SensingModels
from repro.crew.trace import MissionTruth
from repro.localization.pipeline import Localizer
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics
from repro.obs import span

log = get_logger("repro.exec.supervisor")

#: Poll interval of the future-watching loop, seconds.  Small enough
#: that deadline detection is prompt, large enough to stay off the CPU.
_POLL_S = 0.02


class _Wave:
    """What one pool submission wave produced."""

    __slots__ = ("results", "hung", "broken")

    def __init__(self) -> None:
        self.results: dict[int, DayOutcome] = {}
        self.hung: list[int] = []
        self.broken = False


def _spawn_pool(
    workers: int,
    payload: bytes,
    crash_days: frozenset[int],
    hang_days: frozenset[int],
    hang_s: float,
) -> cf.ProcessPoolExecutor:
    try:
        return cf.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(payload, _obs.enabled, tuple(sorted(crash_days)),
                      tuple(sorted(hang_days)), hang_s),
        )
    except (OSError, ValueError, PermissionError) as exc:
        raise ExecutorUnavailable(f"cannot start process pool: {exc!r}") from exc


def _kill_pool(pool: cf.ProcessPoolExecutor) -> None:
    """Tear a pool down hard: cancel queued work, SIGKILL the workers.

    Used when a worker is hung past its deadline — a graceful shutdown
    would wait on the stuck task forever.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.kill()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=2.0)
        except Exception:
            pass


def _collect_wave(
    futures: dict[cf.Future, int],
    deadline_s: Optional[float],
) -> _Wave:
    """Watch one wave of day futures until all resolve or one hangs.

    Completed futures are always harvested — even when a sibling broke
    the pool — so no finished work is ever discarded.  A genuine task
    exception propagates unchanged.
    """
    wave = _Wave()
    waiting = set(futures)
    started: dict[cf.Future, float] = {}
    while waiting:
        done, waiting = cf.wait(waiting, timeout=_POLL_S)
        for fut in done:
            day = futures[fut]
            if fut.cancelled():
                continue
            exc = fut.exception()
            if exc is None:
                wave.results[day] = fut.result()
            elif isinstance(exc, cf.process.BrokenProcessPool):
                wave.broken = True
            else:
                raise exc
        if wave.broken:
            continue  # siblings resolve (broken) almost immediately
        if deadline_s is not None:
            now = time.monotonic()
            for fut in list(waiting):
                if fut.running() and fut not in started:
                    started[fut] = now
            hung = [fut for fut, t0 in started.items()
                    if fut in waiting and now - t0 > deadline_s]
            if hung:
                wave.hung = sorted(futures[fut] for fut in hung)
                return wave  # caller kills the pool; unresolved futures die with it
    return wave


def run_days_supervised(
    cfg: MissionConfig,
    truth: MissionTruth,
    models: SensingModels,
    localizer: Localizer,
    days: list[int],
    execution: ExecutionConfig,
    *,
    on_outcome: Optional[Callable[[DayOutcome], None]] = None,
    crash_days: frozenset[int] = frozenset(),
    hang_days: frozenset[int] = frozenset(),
    hang_s: float = 120.0,
) -> dict[int, DayOutcome]:
    """Fan ``days`` across a supervised process pool; outcomes by day.

    ``on_outcome`` is invoked for every completed day the moment it is
    harvested — including days salvaged out of a broken pool — so the
    caller can checkpoint/cache it before the supervisor does anything
    riskier.  ``crash_days`` / ``hang_days`` inject executor-level
    faults (a worker computing such a day SIGKILLs itself / stalls),
    consumed once per day: after the resulting pool teardown the
    injection is spent and the retry computes the day normally.

    Raises :class:`ExecutorUnavailable` when parallel execution cannot
    proceed (unpicklable context, retry budget exhausted, too many
    consecutive pool failures); every outcome already delivered through
    ``on_outcome`` remains valid, so the caller can finish the remainder
    serially.
    """
    if execution.worker_count < 2:
        raise ConfigError("run_days_supervised needs n_workers >= 2")
    if cfg.fault_plan is not None and cfg.fault_plan.sensing_events():
        raise ExecutorUnavailable(
            "sensing-fault plans couple days through the SD-card budget; run serially"
        )
    payload = pickle_context(cfg, truth, models, localizer)

    pending = sorted(days)
    outcomes: dict[int, DayOutcome] = {}
    timeouts: dict[int, int] = {}
    to_crash = frozenset(crash_days) & set(pending)
    to_hang = frozenset(hang_days) & set(pending)
    rng = np.random.default_rng(0)
    pool_failures = 0
    respawns = 0

    with span("exec.supervise", days=len(pending),
              workers=execution.worker_count):
        while pending:
            pool = _spawn_pool(
                min(execution.worker_count, len(pending)), payload,
                to_crash, to_hang, hang_s,
            )
            futures: dict[cf.Future, int] = {}
            submitted_all = True
            try:
                with span("exec.pool_wave", wave=respawns, days=len(pending)):
                    try:
                        for day in pending:
                            futures[pool.submit(_worker_day, day)] = day
                    except cf.process.BrokenProcessPool:
                        # A worker died while we were still submitting;
                        # harvest whatever the partial wave produced.
                        submitted_all = False
                    wave = _collect_wave(futures, execution.day_deadline_s)
                    if not submitted_all:
                        wave.broken = True
            except BaseException:
                _kill_pool(pool)
                raise
            # Salvage first: completed days reach the checkpoint/cache
            # before any respawn or give-up can lose them.
            for day in sorted(wave.results):
                outcome = wave.results[day]
                outcomes[day] = outcome
                pending.remove(day)
                if on_outcome is not None:
                    on_outcome(outcome)
            if wave.hung or wave.broken:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)
            if not pending:
                break

            # Every injected fault submitted to that pool is now spent;
            # retries must compute their days for real.
            to_crash -= set(futures.values())
            to_hang -= set(futures.values())

            if wave.hung:
                for day in wave.hung:
                    timeouts[day] = timeouts.get(day, 0) + 1
                    log.warning("worker-hung", day=day,
                                deadline_s=execution.day_deadline_s,
                                attempt=timeouts[day])
                    if _obs.enabled:
                        _metrics.counter(
                            "exec.timeouts",
                            "day tasks past their deadline (hung worker killed)",
                        ).inc()
                over = [d for d in wave.hung
                        if timeouts[d] > execution.max_day_retries]
                if over:
                    raise ExecutorUnavailable(
                        f"day(s) {over} exceeded the {execution.day_deadline_s}s "
                        f"deadline more than {execution.max_day_retries} time(s)"
                    )
            if wave.broken:
                pool_failures = 0 if wave.results else pool_failures + 1
                log.warning("pool-broken", salvaged=len(wave.results),
                            remaining=len(pending),
                            consecutive_failures=pool_failures)
                if _obs.enabled:
                    _metrics.counter(
                        "exec.pool_respawns",
                        "process pools respawned after breakage or hang",
                    ).inc()
                if pool_failures >= execution.pool_failure_limit:
                    raise ExecutorUnavailable(
                        f"process pool failed {pool_failures} consecutive "
                        f"times without progress"
                    )
            if _obs.enabled:
                _metrics.counter(
                    "exec.retries", "supervised day tasks re-submitted, by reason"
                ).inc(len(pending),
                      reason="timeout" if wave.hung else "pool-broken")
            respawns += 1
            delay = (execution.retry_backoff_s * (2.0 ** (respawns - 1))
                     * rng.uniform(0.5, 1.5))
            if delay > 0:
                time.sleep(min(delay, 5.0))
    return outcomes
