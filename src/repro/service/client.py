"""Thin client for the mission fleet service.

The client and the service rendezvous on the durable registry: a
submission is one transaction against the same SQLite file the service
drains, so queueing work needs no network hop and survives the service
being down (jobs wait in ``queued`` until a ``repro serve`` picks them
up).  Everything the CLI does — submit, status, result, health — goes
through here, so library users get the identical surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import MissionConfig
from repro.experiments.submission import (
    config_to_dict,
    submission_fingerprint,
)
from repro.service import worker as worker_mod
from repro.service.config import DB_NAME
from repro.service.errors import ServiceError
from repro.service.registry import JobRecord, MissionRegistry


@dataclass(frozen=True)
class SubmitReceipt:
    """What a submission returns: identity plus dedup disposition."""

    job_id: str
    fingerprint: str
    state: str
    deduped: bool
    submit_count: int

    def to_text(self) -> str:
        verb = "deduplicated onto" if self.deduped else "submitted as"
        return (f"{verb} job {self.job_id} ({self.state}, "
                f"submission #{self.submit_count}, "
                f"fingerprint {self.fingerprint})")


class FleetClient:
    """Registry-backed client; one instance per service root."""

    def __init__(self, root: str | Path, *, create: bool = False,
                 busy_timeout_s: float = 5.0):
        self.root = Path(root)
        self.registry = MissionRegistry.open(
            self.root / DB_NAME, create=create, busy_timeout_s=busy_timeout_s)

    def close(self) -> None:
        self.registry.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations --------------------------------------------------------

    def submit(self, cfg: MissionConfig, *, quality: str = "auto",
               tenant: str = "") -> SubmitReceipt:
        """Queue one mission submission (deduplicated by fingerprint).

        Raises:
            QueueFullError: admission control rejected the submission;
                the error carries a ``retry_after_s`` hint.
        """
        fingerprint = submission_fingerprint(cfg, quality)
        record, deduped = self.registry.submit(
            fingerprint=fingerprint, config=config_to_dict(cfg),
            quality=quality, tenant=tenant, now=time.time(),
            retry_after=self._retry_after_s)
        return SubmitReceipt(
            job_id=record.job_id, fingerprint=record.fingerprint,
            state=record.state, deduped=deduped,
            submit_count=record.submit_count + (1 if deduped else 0))

    def _retry_after_s(self, depth: int) -> float:
        """Suggested wait for a rejected submitter: the time the workers
        take to drain ``depth`` jobs at the measured mean job time (5 s
        until a job has finished)."""
        n_workers = int(self.registry.get_meta("n_workers", 1))
        mean_job_s = self.registry.mean_job_s()
        return max(1.0, depth * (mean_job_s or 5.0) / n_workers)

    def status(self, ref: str) -> JobRecord:
        """Registry record for a job id / fingerprint (or unique prefix)."""
        return self.registry.get(ref)

    def result(self, ref: str) -> dict:
        """Verified result payload of a completed job.

        Raises:
            UnknownJobError: no such job.
            ServiceError: the job exists but has not completed.
        """
        record = self.registry.get(ref)
        if record.state != "done" or record.result_path is None:
            raise ServiceError(
                f"job {record.job_id} is {record.state}, not done"
                + (f" (last error: {record.error})" if record.error else ""))
        return worker_mod.load_result(record.result_path)

    def wait(self, ref: str, *, timeout_s: float = 60.0,
             poll_s: float = 0.1) -> JobRecord:
        """Block until a job reaches ``done``/``dead`` (or raise on timeout)."""
        deadline = time.monotonic() + timeout_s
        while True:
            record = self.registry.get(ref)
            if record.terminal:
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout_s:.0f}s waiting on job "
                    f"{record.job_id} (state {record.state})")
            time.sleep(poll_s)

    def overview(self) -> dict:
        """Counts by state, dedup totals, dead letters, and the probe."""
        jobs = self.registry.jobs()
        return {
            "counts": self.registry.counts(),
            "submitted": sum(j.submit_count for j in jobs),
            "deduped": sum(j.submit_count - 1 for j in jobs),
            "jobs": len(jobs),
            "dead_letters": self.registry.dead_letters(),
            "probe": self.registry.probe(),
        }

    def health(self) -> dict:
        """Liveness/readiness of the serving process, from its probe."""
        probe = self.registry.probe()
        if probe is None:
            return {"live": False, "ready": False, "detail": "no service probe"}
        return probe
