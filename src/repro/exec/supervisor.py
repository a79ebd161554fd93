"""The day pool, both sides of its process boundary: one pool per call.

:func:`run_days_supervised` is the mission driver's one parallel path,
and every decision about the pool is made here:

* **eligibility** — sensing-fault plans and ``"auto"`` missions too
  small for a pool are refused, with the refusal as the ``reason`` of
  :class:`~repro.exec.executor.ExecutorUnavailable`;
* **the worker side** — the supervisor starts its own worker processes,
  one pipe each; a worker unpickles the mission context once and runs
  :func:`~repro.exec.executor.compute_day` for every day index it is
  sent; a ``worker-crash`` event of the mission's fault plan makes the
  worker computing that day SIGKILL itself;
* **salvage first** — a day is sent only to an idle worker, and each
  finished day is handed to the caller's ``on_outcome`` hook once its
  worker has the next day, so it reaches the day store before anything
  riskier happens;
* **one loss rule** — a day is lost when its worker ends without
  answering (OOM kill, segfault, an injected ``worker-crash``, even
  halfway through its reply) or when it runs longer than
  ``ExecutionConfig.day_deadline_s`` from its hand-off (its worker is
  SIGKILLed).  Only that day is lost: no day is handed out after the
  first loss, the days running on live workers finish and are
  delivered, and the call raises
  :class:`~repro.exec.executor.ExecutorUnavailable` naming each lost
  day with its cause and the days left.  The supervisor detects; it
  does not retry.  The mission driver finishes the rest serially;
* **one teardown** — every worker is SIGKILLed and reaped and every
  pipe closed when the call ends, however it ends;
* **telemetry** — workers snapshot their telemetry per day, and the
  snapshots join the caller's span in day order before the call ends;
* **no orphans** — a worker whose driver dies (SIGKILL included) exits
  within about :data:`_ORPHAN_POLL_S`.

A genuine exception raised by the day computation re-raises in the
driver with its type and message, as on the serial path, raised from
the worker's traceback text.  Timeouts are visible in telemetry (the
``exec.timeouts`` counter and the ``exec.supervise`` span), and the
driver counts each refusal and hand-back as ``exec.fallback{reason}``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from typing import TYPE_CHECKING, Callable, Optional

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

if TYPE_CHECKING:
    from multiprocessing import Process
    from multiprocessing.connection import Connection

log = get_logger("repro.exec.supervisor")

#: How often a worker checks that its driver still runs, seconds.
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    """End this worker once ``parent_pid`` is no longer its parent.

    Workers forked after this one hold copies of the supervisor's end of
    its pipe, so a SIGKILLed driver does not close it, and the worker
    would wait for its next day forever.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


class _RemoteTraceback(Exception):
    """The traceback text of an exception a day raised in a worker."""


def _worker(conn: Connection, payload: bytes, telemetry_enabled: bool,
            hang_days: frozenset[int], hang_s: float) -> None:
    """Answer each day index ``conn`` brings, until the pipe closes.

    The answer is ``(outcome, telemetry snapshot or None)``, or
    ``(exception, traceback text)`` when the day raised.  One fleet and
    registry serve all the worker's days — safe because day-start state
    is history-independent (see :mod:`repro.exec.executor`).
    """
    from repro import obs

    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="orphan-watch", daemon=True).start()
    obs.reset()  # a forked worker inherits the driver's telemetry stores
    if telemetry_enabled:
        obs.enable()
    cfg, truth, models, localizer = pickle.loads(payload)
    assignment, rngs, fleet = day_stack(cfg, truth)
    while True:
        try:
            day = conn.recv()
        except EOFError:  # the supervisor closed its end
            return
        if cfg.fault_plan is not None and day in cfg.fault_plan.worker_crash_days():
            # Injected worker-crash fault: die the way a real crash does —
            # no exception, no cleanup, no answer.
            os.kill(os.getpid(), signal.SIGKILL)
        if day in hang_days:
            time.sleep(hang_s)  # past any reasonable day deadline
        if _obs.enabled:
            # Per-day snapshots: each carries only its own day's telemetry,
            # so they merge in day order without double counting.
            _metrics.registry.reset()
            tracing.collector.reset()
            _logging.buffer.reset()
        try:
            outcome = compute_day(
                cfg, truth, day, assignment, models, localizer, fleet, rngs,
                SdCardAccountant(), plan=None,
            )
        except Exception as exc:
            conn.send((exc, traceback.format_exc()))
        else:
            conn.send((outcome, _export.to_dict(include_histogram_values=True)
                       if _obs.enabled else None))


def _start_workers(n: int, payload: bytes, hang_days: frozenset[int],
                   hang_s: float) -> list[tuple[Process, Connection]]:
    """Start ``n`` workers, each with one pipe; keep this process's ends."""
    import multiprocessing as mp  # here, so the serial path never loads it

    workers: list[tuple[Process, Connection]] = []
    try:
        for _ in range(n):
            here, there = mp.Pipe()
            proc = mp.Process(target=_worker, args=(
                there, payload, _obs.enabled, hang_days, hang_s))
            proc.start()
            # Closed before the next fork, so the worker alone holds
            # ``there`` and its death reads as end-of-file on ``here``.
            there.close()
            workers.append((proc, here))
    except OSError as exc:
        _stop_workers(workers)
        raise ExecutorUnavailable(f"cannot start day workers: {exc!r}") from exc
    return workers


def _stop_workers(workers: list[tuple[Process, Connection]]) -> None:
    """SIGKILL and reap every worker and close every pipe: the one
    teardown, for a return, a hand-back and an exception alike."""
    for proc, _ in workers:
        proc.kill()
    for proc, conn in workers:
        proc.join()
        conn.close()


def _watch(
    workers: list[tuple[Process, Connection]],
    days: list[int],
    deadline_s: Optional[float],
    deliver: Callable[[tuple[DayOutcome, Optional[dict]]], None],
) -> dict[int, str]:
    """Send ``days`` to idle workers and ``deliver`` each as it lands.

    A day goes only to an idle worker, so its deadline clock runs from
    the hand-off and never counts a wait for a worker.  A day is lost
    when its worker ends without answering or when it runs past
    ``deadline_s`` (its worker is SIGKILLed).  After the first loss no
    day is handed out; the days still running finish and are delivered.
    Returns each lost day with its cause, empty once every day is
    delivered.  A day's genuine exception re-raises here.
    """
    from multiprocessing.connection import wait

    queued, idle = list(days), list(workers)
    running: dict[Connection, tuple[int, float, Process]] = {}
    landed: list[tuple[DayOutcome, Optional[dict]]] = []
    lost: dict[int, str] = {}
    while True:
        while queued and idle and not lost:
            proc, conn = idle.pop()
            day = queued.pop(0)
            try:
                conn.send(day)
            except OSError:  # this idle worker has died
                lost[day] = "its worker died"
            else:
                running[conn] = (day, time.monotonic(), proc)
        # Delivered after the refill, so no worker idles while the
        # caller stores a day.
        for reply in sorted(landed, key=lambda reply: reply[0].day):
            deliver(reply)
        landed.clear()
        if not running:
            return lost
        timeout = None
        if deadline_s is not None:
            first = min(t0 for _, t0, _ in running.values())
            timeout = max(0.0, first + deadline_s - time.monotonic())
        for conn in wait(list(running), timeout):
            day, _, proc = running.pop(conn)
            try:
                result, detail = conn.recv()
            except (EOFError, OSError):  # it ended, even halfway through a reply
                lost[day] = "its worker died"
                continue
            if isinstance(result, BaseException):
                raise result from _RemoteTraceback(detail)
            landed.append((result, detail))
            idle.append((proc, conn))
        for conn, (day, t0, proc) in list(running.items()):
            if deadline_s is not None and time.monotonic() - t0 > deadline_s:
                log.warning("worker-hung", day=day, deadline_s=deadline_s)
                if _obs.enabled:
                    _metrics.counter(
                        "exec.timeouts",
                        "day tasks past their deadline (hung worker killed)",
                    ).inc()
                proc.kill()
                del running[conn]
                lost[day] = f"ran past the {deadline_s}s deadline"


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
    lands — including the days that finish after a sibling's day was
    lost — so the caller can store it before the supervisor does
    anything riskier.  A worker SIGKILLs itself on a day a
    ``worker-crash`` event of ``cfg.fault_plan`` strikes, and stalls for
    ``hang_s`` on one of ``hang_days``.

    Raises :class:`ExecutorUnavailable` when the mission may not use a
    pool (``reason`` ``"auto-small-mission"`` or ``"sensing-fault-plan"``)
    or this pool cannot finish the days: the context does not pickle, the
    workers cannot start, or a day was lost because its worker died or
    it ran past ``execution.day_deadline_s``.  The message names each
    lost day with its cause and the days left; every outcome already
    delivered through ``on_outcome`` remains valid, so the caller
    finishes the rest serially.  No worker is respawned.  Worker
    telemetry is merged under the span open at the call, in day order,
    after ``exec.supervise`` closes, before this returns or raises.
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
        workers = _start_workers(min(execution.worker_count, len(days)),
                                 payload, hang_days, hang_s)
        try:
            lost = _watch(workers, days, execution.day_deadline_s, deliver)
        finally:
            _stop_workers(workers)
    # Days land in completion order; their telemetry joins in day order.
    parent_id = caller.span_id if caller is not None else None
    for day in sorted(snapshots):
        _export.merge_snapshot(snapshots[day], parent_span_id=parent_id)
    if not lost:
        return outcomes
    causes = "; ".join(f"day {day}: {cause}" for day, cause in sorted(lost.items()))
    left = [day for day in days if day not in outcomes]
    raise ExecutorUnavailable(f"{causes}; day(s) {left} left unfinished")
