"""Configuration of the mission fleet service.

One :class:`ServiceConfig` describes a service *home*: a directory
holding the durable registry database plus the stores every worker
shares — the content-addressed mission cache, the per-fingerprint
checkpoint journals, and the result artifacts.  Everything a restart
needs to recover in-flight work lives under this one root.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.errors import ConfigError

#: Registry database file name inside the service root.
DB_NAME = "registry.db"

#: Default bounded backlog (queued + leased + running) before admission
#: control starts rejecting submissions.
DEFAULT_QUEUE_DEPTH = 256


@dataclass(frozen=True)
class ServiceConfig:
    """How a fleet service runs — never what its missions compute.

    Attributes:
        root: service home directory (registry DB, cache, journals,
            results all live under it; created on demand).
        n_workers: concurrent mission workers (asyncio tasks, each
            running its leased mission in a thread).
        queue_depth: admission bound on the backlog; a submission that
            would push queued+leased+running past it is rejected with a
            :class:`~repro.service.errors.QueueFullError` carrying a
            retry-after hint.
        lease_s: lease duration granted to a worker; heartbeats every
            third of it extend it, and a lease whose deadline passes
            without one is requeued (the holder is presumed dead or hung).
        max_attempts: per-job retry budget — lease acquisitions,
            including post-crash re-leases — before the job is
            dead-lettered (state ``dead``) instead of requeued.
        retry_backoff_s: base of the exponential requeue backoff.
        backoff_seed: seed of the jitter RNG so retry schedules are
            reproducible.
        job_timeout_s: optional per-job wall-clock deadline; a job
            running longer stops being heartbeated, its lease expires,
            and it is requeued against the retry budget.
        poll_s: supervisor poll interval (filling idle worker slots,
            the expired-lease sweep, drain detection).
    """

    root: str
    n_workers: int = 2
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    lease_s: float = 30.0
    max_attempts: int = 3
    retry_backoff_s: float = 0.25
    backoff_seed: int = 0
    job_timeout_s: Optional[float] = None
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        if not str(self.root):
            raise ConfigError("service root must be a non-empty path")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.lease_s <= 0:
            raise ConfigError("lease_s must be positive")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be >= 0")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ConfigError("job_timeout_s must be positive or None")
        if self.poll_s <= 0:
            raise ConfigError("poll_s must be positive")

    # -- derived paths ---------------------------------------------------

    @property
    def root_path(self) -> Path:
        return Path(self.root)

    @property
    def db_path(self) -> Path:
        return self.root_path / DB_NAME

    @property
    def cache_dir(self) -> Path:
        return self.root_path / "cache"

    @property
    def journal_dir(self) -> Path:
        return self.root_path / "journal"

    @property
    def results_dir(self) -> Path:
        return self.root_path / "results"

    @property
    def heartbeat_s(self) -> float:
        """Lease heartbeat (and health-probe refresh) interval."""
        return self.lease_s / 3.0
