"""The long-running mission fleet service.

``FleetService.run()`` drives the whole lifecycle on one asyncio loop:

* up to ``n_workers`` **slot** tasks each run one leased job — mark it
  running, execute it in a thread (:func:`repro.service.worker.execute_job`)
  under a lease heartbeat that stops on purpose once the optional per-job
  deadline passes, then complete or fail it — and lease the next due job
  themselves.  A job is leased only by the slot that runs it, so the
  service never holds more leases than it has workers;
* the **supervisor** loop starts a slot for each due job while slots are
  free, requeues expired leases with seeded-jitter exponential backoff
  (dead-lettering past the retry budget), refreshes the health probe,
  exports the ``service.*`` telemetry, and detects a finished drain.

Crash recovery is a property of the registry + day store, not of this
loop: on startup the service requeues every lease whose owning process
died (``kill -9`` leaves them mid-flight), and each re-leased job
*resumes* from the days the store already holds.  A stale worker that
somehow survives cannot double-acknowledge (lease tokens) or interleave
day writes (the store's writer lease) — exactly-once execution per
fingerprint holds across restarts.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from typing import Optional

from repro.exec.checkpoint import JournalBusyError
from repro.faults.service import ServiceChaos
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics
from repro.service import worker as worker_mod
from repro.service.config import ServiceConfig
from repro.service.queue import BackoffPolicy
from repro.service.registry import JobRecord, MissionRegistry, process_owner

log = get_logger("repro.service")


class FleetService:
    """Supervised async mission fleet service over one durable registry."""

    def __init__(self, config: ServiceConfig, *,
                 chaos: Optional[ServiceChaos] = None):
        self.config = config
        self.chaos = chaos or ServiceChaos()
        self.owner = process_owner()
        self.registry: Optional[MissionRegistry] = None
        self._backoff = BackoffPolicy(base_s=config.retry_backoff_s)
        self._stop = asyncio.Event()
        #: The loop ``run`` serves on, while it does.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Slot tasks, at most ``n_workers``; each holds one lease.
        self._slots: set[asyncio.Task] = set()
        self.stats = {
            "completed": 0, "failed": 0, "dead": 0, "requeued": 0,
            "recovered_on_start": 0, "lease_lost": 0, "journal_busy": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the service to shut down gracefully.

        Safe from any thread and from a signal handler: an asyncio event
        may only be set on its own loop.
        """
        loop = self._loop
        if loop is None:
            self._stop.set()
        else:
            loop.call_soon_threadsafe(self._stop.set)

    async def run(self, *, drain: bool = False,
                  install_signal_handlers: bool = False) -> dict:
        """Serve until stopped — or, with ``drain=True``, until the
        registry holds no runnable work.  Returns the run's stats."""
        cfg = self.config
        for path in (cfg.cache_dir, cfg.results_dir):
            path.mkdir(parents=True, exist_ok=True)
        self.registry = MissionRegistry.open(cfg.db_path, create=True)
        self.registry.set_meta(
            queue_depth=cfg.queue_depth, max_attempts=cfg.max_attempts,
            n_workers=cfg.n_workers)
        now = time.time()
        recovered = self.registry.recover_orphans(
            now=now, backoff=lambda attempts: 0.0)
        recovered += self.registry.recover_expired(
            now=now, backoff=self._backoff.delay_s)
        self.stats["recovered_on_start"] = len(recovered)
        if recovered:
            log.warning("startup-recovery", jobs=recovered)
        self.registry.set_probe(owner=self.owner, pid=os.getpid(),
                                state="ready", now=now)

        loop = self._loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                except (NotImplementedError, RuntimeError):
                    pass

        try:
            await self._supervise(drain=drain)
        finally:
            # Graceful shutdown: slots lease nothing more, and in-flight
            # work finishes and acknowledges.
            state = "drained" if drain and not self._stop.is_set() else "stopped"
            self._stop.set()
            await asyncio.gather(*self._slots, return_exceptions=True)
            self.registry.set_probe(owner=self.owner, pid=os.getpid(),
                                    state=state, now=time.time())
            self.registry.close()
            self._loop = None
        return dict(self.stats)

    # -- supervisor ----------------------------------------------------------

    async def _supervise(self, *, drain: bool) -> None:
        cfg = self.config
        registry = self.registry
        last_probe = 0.0
        while not self._stop.is_set():
            self._fill_slots()
            now = time.time()
            requeued = registry.recover_expired(
                now=now, backoff=self._backoff.delay_s)
            self.stats["requeued"] += len(requeued)
            if now - last_probe >= cfg.heartbeat_s:
                last_probe = now
                counts = registry.counts()
                registry.set_probe(owner=self.owner, pid=os.getpid(),
                                   state="ready", now=now,
                                   detail=str(counts))
                if _obs.enabled:
                    _metrics.gauge(
                        "service.queue_depth",
                        "jobs occupying backlog slots (queued+leased+running)",
                    ).set(registry.active_count())
            if drain and registry.active_count() == 0:
                log.info("drain-complete", stats=dict(self.stats))
                return
            try:
                await asyncio.wait_for(self._stop.wait(), timeout=cfg.poll_s)
            except asyncio.TimeoutError:
                pass

    def _fill_slots(self) -> None:
        """Start a slot for each due job while slots are free."""
        while len(self._slots) < self.config.n_workers:
            job = self._lease_next()
            if job is None:
                return
            slot = asyncio.create_task(self._slot(job))
            self._slots.add(slot)
            slot.add_done_callback(self._slot_done)

    def _slot_done(self, slot: asyncio.Task) -> None:
        self._slots.discard(slot)
        if not slot.cancelled() and slot.exception() is not None:
            # The next poll starts a fresh slot; the lost lease expires.
            log.error("slot-crashed", error=repr(slot.exception()))

    def _lease_next(self) -> Optional[JobRecord]:
        """The oldest due job, leased; None if none or stopping."""
        if self._stop.is_set():
            return None
        return self.registry.lease_next(
            owner=self.owner, pid=os.getpid(), now=time.time(),
            lease_s=self.config.lease_s)

    # -- worker slots ---------------------------------------------------------

    async def _slot(self, job: JobRecord) -> None:
        """Run leased jobs one after another until none is due."""
        while job is not None:
            await self._run_job(job)
            job = self._lease_next()

    async def _run_job(self, job: JobRecord) -> None:
        cfg = self.config
        registry = self.registry
        now = time.time()
        if not registry.mark_running(job.job_id, job.lease_token, now):
            # Lease expired before the job started; its requeued twin owns it.
            self.stats["lease_lost"] += 1
            return
        beat = asyncio.create_task(
            self._heartbeat(job, started=now),
            name=f"heartbeat-{job.job_id}")
        try:
            path, digest = await asyncio.to_thread(
                worker_mod.execute_job, job,
                cache_dir=cfg.cache_dir, results_dir=cfg.results_dir)
        except JournalBusyError as exc:
            self.stats["journal_busy"] += 1
            self._fail(job, f"journal-busy: {exc}")
        except Exception as exc:  # noqa: BLE001 — any job error is a job failure
            self._fail(job, f"{type(exc).__name__}: {exc}")
        else:
            done_at = time.time()
            if registry.complete(job.job_id, job.lease_token,
                                 result_path=path, result_digest=digest,
                                 now=done_at):
                self.stats["completed"] += 1
                if _obs.enabled and job.leased_at is not None:
                    _metrics.histogram(
                        "service.lease_age_s",
                        "lease age at completion, seconds",
                    ).observe(done_at - job.leased_at, tenant=job.tenant)
                self.chaos.on_completion(self.stats["completed"])
            else:
                self.stats["lease_lost"] += 1
                log.warning("stale-completion-rejected", job_id=job.job_id)
        finally:
            beat.cancel()

    def _fail(self, job: JobRecord, error: str) -> None:
        outcome = self.registry.fail(
            job.job_id, job.lease_token, error=error, now=time.time(),
            backoff_s=self._backoff.delay_s(job.attempts))
        if outcome == "dead":
            self.stats["dead"] += 1
        elif outcome == "failed":
            self.stats["failed"] += 1
        else:
            self.stats["lease_lost"] += 1
        log.warning("job-attempt-failed", job_id=job.job_id, error=error,
                    outcome=outcome or "lease-lost")

    async def _heartbeat(self, job: JobRecord, *, started: float) -> None:
        cfg = self.config
        while True:
            await asyncio.sleep(cfg.heartbeat_s)
            if (cfg.job_timeout_s is not None
                    and time.time() - started > cfg.job_timeout_s):
                # Deliberately stop renewing: the lease expires and the
                # supervisor requeues the job against its retry budget.
                log.warning("job-deadline-passed", job_id=job.job_id)
                return
            self.registry.heartbeat(job.job_id, job.lease_token,
                                    now=time.time(), lease_s=cfg.lease_s)


def serve(config: ServiceConfig, *, drain: bool = False,
          chaos: Optional[ServiceChaos] = None,
          install_signal_handlers: bool = False) -> dict:
    """Synchronous entry point: run a fleet service on a fresh loop."""
    service = FleetService(config, chaos=chaos)
    return asyncio.run(service.run(
        drain=drain, install_signal_handlers=install_signal_handlers))
