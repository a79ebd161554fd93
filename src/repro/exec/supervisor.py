"""The day pool, both sides of its process boundary: one pool per call.

:func:`run_days_supervised` is the mission driver's one parallel path,
and every decision about the pool is made here:

* **eligibility** — sensing-fault plans and ``"auto"`` missions too
  small for a pool are refused, with the refusal as the ``reason`` of
  :class:`~repro.exec.executor.ExecutorUnavailable`;
* **the worker side** — each worker unpickles the mission context once
  and runs :func:`~repro.exec.executor.compute_day` for every day it is
  handed; a ``worker-crash`` event of the mission's fault plan makes the
  worker computing that day SIGKILL itself;
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
  driver finishes the remaining days with its serial loop;
* **telemetry** — workers snapshot their telemetry per day, and the
  snapshots join the caller's span in day order before the call ends;
* **no orphans** — a worker whose driver dies (SIGKILL included) exits
  within about :data:`_ORPHAN_POLL_S`.

Genuine exceptions raised by the day computation itself propagate
unchanged, exactly as on the serial path.

Timeouts are visible in telemetry (the ``exec.timeouts`` counter and the
``exec.supervise`` span), and the driver counts each refusal and
hand-back as ``exec.fallback{reason}``.
"""

from __future__ import annotations

import concurrent.futures as cf
import os
import pickle
import signal
import threading
import time
from typing import Callable, Optional

from repro.badges.pipeline import SensingModels
from repro.badges.sdcard import SdCardAccountant
from repro.core.config import ExecutionConfig, MissionConfig
from repro.core.errors import ConfigError
from repro.crew.trace import MissionTruth
from repro.exec.executor import (
    DayOutcome,
    ExecutorUnavailable,
    compute_day,
    day_stack,
)
from repro.localization.pipeline import Localizer
from repro.obs import _state as _obs
from repro.obs import export as _export
from repro.obs import get_logger
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import span, tracing

log = get_logger("repro.exec.supervisor")

#: Poll interval of the future-watching loop, seconds.  Small enough
#: that deadline detection is prompt, large enough to stay off the CPU.
_POLL_S = 0.02


# -- the worker side ---------------------------------------------------
#
# Workers keep the unpickled mission context in module globals; each
# task ships a day index in and (outcome, telemetry snapshot or None)
# out.  A worker's fleet/registry serve all its days — safe because
# day-start state is history-independent (see repro.exec.executor).

_CTX: Optional[tuple] = None
#: Injected stragglers (tests): days whose worker stalls, and for how long.
_HANG_DAYS: frozenset[int] = frozenset()
_HANG_S: float = 0.0


#: How often a worker checks that its driver still runs, seconds.
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    """End this worker once ``parent_pid`` is no longer its parent.

    A worker blocks on its call queue, whose write end it holds too, so a
    SIGKILLed driver would leave it waiting forever.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _worker_init(payload: bytes, telemetry_enabled: bool,
                 hang_days: frozenset[int], hang_s: float) -> None:
    global _CTX, _HANG_DAYS, _HANG_S
    from repro import obs

    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="orphan-watch", daemon=True).start()
    obs.reset()  # a forked worker inherits the driver's telemetry stores
    if telemetry_enabled:
        obs.enable()
    cfg, truth, models, localizer = pickle.loads(payload)
    _CTX = (cfg, truth, models, localizer, *day_stack(cfg, truth))
    _HANG_DAYS, _HANG_S = hang_days, hang_s


def _worker_day(day: int) -> tuple[DayOutcome, Optional[dict]]:
    assert _CTX is not None, "worker used before initialization"
    cfg, truth, models, localizer, assignment, rngs, fleet = _CTX
    if cfg.fault_plan is not None and day in cfg.fault_plan.worker_crash_days():
        # Injected worker-crash fault: die the way a real crash does —
        # no exception, no cleanup, the pool just loses the process.
        os.kill(os.getpid(), signal.SIGKILL)
    if day in _HANG_DAYS:
        time.sleep(_HANG_S)  # past any reasonable day deadline
    if _obs.enabled:
        # Per-day snapshots: each carries only its own day's telemetry,
        # so they merge in day order without double counting.
        _metrics.registry.reset()
        tracing.collector.reset()
        _logging.buffer.reset()
    outcome = compute_day(
        cfg, truth, day, assignment, models, localizer, fleet, rngs,
        SdCardAccountant(), plan=None,
    )
    snapshot = (_export.to_dict(include_histogram_values=True)
                if _obs.enabled else None)
    return outcome, snapshot


def _spawn_pool(workers: int, payload: bytes, hang_days: frozenset[int],
                hang_s: float) -> cf.ProcessPoolExecutor:
    try:
        return cf.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(payload, _obs.enabled, hang_days, hang_s),
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
    deliver: Callable[[tuple[DayOutcome, Optional[dict]]], None],
) -> Optional[str]:
    """Hand ``days`` to the pool and ``deliver`` each result as it lands.

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
    hang_days: frozenset[int] = frozenset(),
    hang_s: float = 120.0,
) -> dict[int, DayOutcome]:
    """Fan ``days`` across one supervised process pool; outcomes by day.

    ``on_outcome`` is invoked for every completed day as soon as it
    lands — including days salvaged out of a broken pool — so the caller
    can store it before the supervisor does anything riskier.  A worker
    SIGKILLs itself on a day a ``worker-crash`` event of ``cfg.fault_plan``
    strikes, and stalls for ``hang_s`` on one of ``hang_days``.

    Raises :class:`ExecutorUnavailable` when the mission may not use a
    pool (``reason`` ``"auto-small-mission"`` or ``"sensing-fault-plan"``)
    or this pool cannot finish the days: the context does not pickle, the
    pool cannot start, a worker died, or a day ran past
    ``execution.day_deadline_s``.  The message names the cause and the
    days left; every outcome already delivered through ``on_outcome``
    remains valid, so the caller finishes the rest serially.  No pool is
    respawned.  Worker telemetry is merged under the span open at the
    call, in day order, after ``exec.supervise`` closes, before this
    returns or raises.
    """
    if execution.worker_count < 2:
        raise ConfigError("run_days_supervised needs n_workers >= 2")
    # "auto" keeps a mission serial when fork + context pickling would
    # cost more than its days (the small-box 0.92x regression).
    units = len(days) * cfg.frames_per_day * (cfg.crew_size + 1)
    if execution.auto_serial(units):
        raise ExecutorUnavailable(
            f"{units} frame-badge units are too few to pay for an 'auto' pool",
            reason="auto-small-mission")
    # Only sensing-level faults (battery cuts, SD-card caps, beacon
    # outages) couple days; bus- and executor-level ones keep the pool.
    if cfg.fault_plan is not None and cfg.fault_plan.sensing_events():
        raise ExecutorUnavailable(
            "sensing-fault plans couple days through the SD-card budget; "
            "run serially", reason="sensing-fault-plan")
    try:
        payload = pickle.dumps((cfg, truth, models, localizer),
                               protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ExecutorUnavailable(f"mission context is not picklable: {exc!r}") from exc
    days = sorted(days)
    outcomes: dict[int, DayOutcome] = {}
    snapshots: dict[int, dict] = {}
    caller = tracing.current_span()

    def deliver(landed: tuple[DayOutcome, Optional[dict]]) -> None:
        outcome, snapshot = landed
        outcomes[outcome.day] = outcome
        if snapshot is not None:
            snapshots[outcome.day] = snapshot
        if on_outcome is not None:
            on_outcome(outcome)

    with span("exec.supervise", days=len(days),
              workers=execution.worker_count):
        workers = min(execution.worker_count, len(days))
        pool = _spawn_pool(workers, payload, hang_days, hang_s)
        try:
            cause = _watch(pool, days, workers, execution.day_deadline_s,
                           deliver)
        except BaseException:
            _kill_pool(pool)
            raise
        if cause is None:
            pool.shutdown(wait=True)
        else:
            _kill_pool(pool)
    # Days land in completion order; their telemetry joins in day order.
    parent_id = caller.span_id if caller is not None else None
    for day in sorted(snapshots):
        _export.merge_snapshot(snapshots[day], parent_span_id=parent_id)
    if cause is None:
        return outcomes
    left = [day for day in days if day not in outcomes]
    raise ExecutorUnavailable(f"{cause}; day(s) {left} left unfinished")
