"""Worker supervision: one pool per call, deadlines, salvage, hand-back.

:func:`run_days_supervised` is the mission driver's one parallel path.
A bare pool ``map`` would lose every finished day to one worker death;
for a long unattended sweep — the failure mode field deployments of
distributed instruments keep reporting — this wraps the bit-identical
per-day work (:func:`repro.exec.executor.compute_day`) in one supervised
pool:

* **salvage first** — every day is handed to the caller's
  ``on_outcome`` hook as soon as its future lands and its worker has
  the next day, so it reaches the day store before anything riskier
  happens; a broken pool still yields the days that finished before it
  broke;
* **deadlines** — at most one day per worker is in flight, and a day
  that runs longer than ``ExecutionConfig.day_deadline_s`` from its
  hand-off is treated as hung and the pool is torn down (SIGKILL on the
  stuck processes);
* **hand-back** — a crashed worker (OOM kill, segfault, an injected
  ``worker-crash`` fault) breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`; on a broken pool or a
  hung day the supervisor kills the pool and raises
  :class:`~repro.exec.executor.ExecutorUnavailable` naming the cause and
  the days left.  The supervisor detects; it does not retry.  The mission
  driver finishes the remaining days with its serial loop.

Genuine exceptions raised by the day computation itself propagate
unchanged, exactly as on the serial path.

Timeouts are visible in telemetry (the ``exec.timeouts`` counter and the
``exec.supervise`` span), and the driver counts each hand-back as
``exec.fallback{reason="executor-unavailable"}``.
"""

from __future__ import annotations

import concurrent.futures as cf
import time
from typing import Callable, Optional

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
    results = getattr(pool, "_result_queue", None)
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
    # A worker killed while sending its result leaves half a message in
    # the result pipe, and the pool's manager thread would wait for the
    # rest forever (and the interpreter with it, at exit).  With every
    # worker dead, closing this process's write end turns that wait into
    # end-of-file, which the manager handles as a broken pool.
    if results is not None:
        try:
            results._writer.close()
        except Exception:
            pass


def _watch(
    pool: cf.ProcessPoolExecutor,
    days: list[int],
    workers: int,
    deadline_s: Optional[float],
    deliver: Callable[[DayOutcome], None],
) -> Optional[str]:
    """Hand ``days`` to the pool and ``deliver`` each outcome as it lands.

    At most ``workers`` days are in flight, so a day handed off starts
    at once and its deadline clock runs from the hand-off; a day never
    waits in the pool's call queue on the clock.  Returns ``None`` once
    every day is delivered, else why the pool has to go: it broke
    (mid-hand-off included), or a day ran past ``deadline_s``.  Finished
    futures are delivered even when a sibling broke the pool, so no
    finished work is discarded.  A genuine task exception propagates
    unchanged.
    """
    queued = list(days)
    running: dict[cf.Future, tuple[int, float]] = {}
    landed: list[cf.Future] = []
    broken = False
    while True:
        while queued and len(running) < workers and not broken:
            try:
                fut = pool.submit(_worker_day, queued[0])
            except cf.process.BrokenProcessPool:
                broken = True  # a worker died before this hand-off
                break
            running[fut] = (queued.pop(0), time.monotonic())
        # Delivered after the refill, so no worker idles while the
        # caller stores a day.
        for fut in landed:
            exc = fut.exception()
            if exc is None:
                deliver(fut.result())
            elif isinstance(exc, cf.process.BrokenProcessPool):
                broken = True
            else:
                raise exc
        if not running:
            break
        # A broken pool resolves its siblings almost at once.
        if not broken and deadline_s is not None:
            now = time.monotonic()
            hung = sorted(day for day, t0 in running.values()
                          if now - t0 > deadline_s)
            if hung:
                for day in hung:
                    log.warning("worker-hung", day=day, deadline_s=deadline_s)
                    if _obs.enabled:
                        _metrics.counter(
                            "exec.timeouts",
                            "day tasks past their deadline (hung worker killed)",
                        ).inc()
                return f"day(s) {hung} ran past the {deadline_s}s deadline"
        done, _ = cf.wait(running, timeout=_POLL_S,
                          return_when=cf.FIRST_COMPLETED)
        landed = sorted(done, key=lambda f: running[f][0])
        for fut in landed:
            del running[fut]
    return "a worker died and broke the process pool" if broken else None


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
    """Fan ``days`` across one supervised process pool; outcomes by day.

    ``on_outcome`` is invoked for every completed day as soon as it
    lands — including days salvaged out of a broken pool — so the caller
    can store it before the supervisor does anything riskier.
    ``crash_days`` / ``hang_days`` inject executor-level faults: a worker
    computing such a day SIGKILLs itself / stalls for ``hang_s``.

    Raises :class:`ExecutorUnavailable` when this pool cannot finish the
    days: the context does not pickle, the pool cannot start, a worker
    died, or a day ran past ``execution.day_deadline_s``.  The message
    names the cause and the days left; every outcome already delivered
    through ``on_outcome`` remains valid, so the caller finishes the
    rest serially.  No pool is respawned.
    """
    if execution.worker_count < 2:
        raise ConfigError("run_days_supervised needs n_workers >= 2")
    if cfg.fault_plan is not None and cfg.fault_plan.sensing_events():
        raise ExecutorUnavailable(
            "sensing-fault plans couple days through the SD-card budget; run serially"
        )
    payload = pickle_context(cfg, truth, models, localizer)
    days = sorted(days)
    outcomes: dict[int, DayOutcome] = {}

    def deliver(outcome: DayOutcome) -> None:
        outcomes[outcome.day] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    with span("exec.supervise", days=len(days),
              workers=execution.worker_count):
        workers = min(execution.worker_count, len(days))
        pool = _spawn_pool(workers, payload, crash_days, hang_days, hang_s)
        try:
            cause = _watch(pool, days, workers, execution.day_deadline_s,
                           deliver)
        except BaseException:
            _kill_pool(pool)
            raise
        if cause is None:
            pool.shutdown(wait=True)
            return outcomes
        _kill_pool(pool)
    left = [day for day in days if day not in outcomes]
    raise ExecutorUnavailable(f"{cause}; day(s) {left} left unfinished")
