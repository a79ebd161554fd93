"""repro.exec: the mission execution engine.

Everything about *how* a mission run executes — as opposed to *what* it
computes — lives here:

- :mod:`repro.exec.executor` — a day's work (:func:`compute_day` /
  :class:`DayOutcome`, on the stack :func:`day_stack` builds), the same
  in the serial loop and in a pool worker;
- :mod:`repro.exec.supervisor` — both sides of the day pool: which
  missions may use it, the worker processes it starts and ends itself
  (one pipe each), one pool per call, per-day deadlines, salvage of
  every finished day, the merge of worker telemetry, and a hand-back of
  the unfinished days to the serial loop when a worker dies or hangs,
  which loses only that worker's day;
- :mod:`repro.exec.cache` — content-addressed on-disk store of ground
  truth and completed days, the one place a run resumes from;
- :mod:`repro.exec.checkpoint` — the store's per-fingerprint writer
  lease, held by every run that stores days;
- :mod:`repro.exec.integrity` — checksummed atomic artifacts and the
  quarantine policy of the store;
- :mod:`repro.exec.hashing` — the stable config fingerprints the cache
  keys on.

Callers select execution behaviour with a frozen
:class:`~repro.core.config.ExecutionConfig`::

    from repro import ExecutionConfig, MissionConfig, run_mission

    result = run_mission(
        MissionConfig(days=14),
        execution=ExecutionConfig(n_workers=4, cache_dir=".mission-cache"),
    )

Rerunning the same call after a crash resumes from the days the store
already holds, bit-identical to an uninterrupted run.
"""

from repro.core.config import ExecutionConfig
from repro.exec.cache import MissionCache
from repro.exec.checkpoint import CheckpointJournal, JournalBusyError
from repro.exec.executor import (
    DayOutcome,
    ExecutorUnavailable,
    compute_day,
)
from repro.exec.hashing import (
    SCHEMA_VERSION,
    sensing_fingerprint,
    truth_compatible,
    truth_fingerprint,
)
from repro.exec.integrity import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactUnreadable,
)
from repro.exec.supervisor import run_days_supervised

__all__ = [
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactUnreadable",
    "CheckpointJournal",
    "DayOutcome",
    "ExecutionConfig",
    "ExecutorUnavailable",
    "JournalBusyError",
    "MissionCache",
    "SCHEMA_VERSION",
    "compute_day",
    "run_days_supervised",
    "sensing_fingerprint",
    "truth_compatible",
    "truth_fingerprint",
]
