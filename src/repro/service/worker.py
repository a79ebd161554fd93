"""Job execution: one leased submission through the mission engine.

A worker reconstructs the submitted :class:`MissionConfig`, runs it with
the service's *shared* content-addressed day store, and persists a
canonical result artifact.  The execution layers compose into the
service's exactly-once story:

* the day store makes a re-leased job **resume** — days the killed
  incarnation completed are restored bit-identically, never recomputed
  (``repro.exec.cache``);
* the store's per-fingerprint writer lease turns concurrent execution
  of one fingerprint — a stale worker racing its requeued twin — into a
  clean :class:`~repro.exec.checkpoint.JournalBusyError`, which the
  service treats as a retryable collision;
* the result artifact is content-addressed by the submission
  fingerprint and checksummed (``repro.exec.integrity``), and its
  digest covers only mission *content* (summaries, pairwise data,
  quality/reliability reports) — never execution-side noise like cache
  hit counts — so an interrupted-then-resumed run and an uninterrupted
  one produce byte-identical artifacts.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import ExecutionConfig
from repro.exec import hashing, integrity
from repro.experiments.mission import run_mission
from repro.experiments.submission import config_from_dict

if TYPE_CHECKING:
    from repro.service.registry import JobRecord

#: Version tag of the result-artifact payload layout.
RESULT_SCHEMA = 1


def result_payload(result, fingerprint: str) -> dict:
    """Canonical, deterministic result record for one completed mission.

    Deliberately excludes telemetry, cache statistics, and the (large,
    cache-shared) ground truth: the payload must hash identically across
    cold runs, warm-cache runs, and post-crash resumes of the same
    submission.
    """
    return {
        "schema": RESULT_SCHEMA,
        "fingerprint": fingerprint,
        "config": hashing.canonical(result.cfg),
        "badge_days": len(result.sensing.summaries),
        "sdcard_gib": result.sdcard.total_gib(),
        "summaries": result.sensing.summaries,
        "pairwise": result.sensing.pairwise,
        "quality": result.quality.to_dict() if result.quality is not None else None,
        "reliability": (result.reliability.to_dict()
                        if result.reliability is not None else None),
    }


def execute_job(job: "JobRecord", *, cache_dir: Path,
                results_dir: Path) -> tuple[str, str]:
    """Run one leased job to completion; returns ``(path, digest)``.

    Always resumes: with the shared day store, a job re-leased after a
    service ``kill -9`` restores every day its previous incarnation
    already completed, and only computes the remainder.

    Raises:
        JournalBusyError: another live process is executing this
            fingerprint right now (retryable — requeue with backoff).
        ConfigError: the stored submission does not deserialize.
    """
    cfg = config_from_dict(job.config)
    execution = ExecutionConfig(n_workers="serial", cache_dir=str(cache_dir))
    result = run_mission(cfg, execution=execution, quality=job.quality)
    path = Path(results_dir) / f"{job.fingerprint}.pkl"
    digest = integrity.write_artifact(
        path, result_payload(result, job.fingerprint),
        schema=hashing.SCHEMA_VERSION)
    return str(path), digest


def load_result(result_path: str | Path) -> dict:
    """Verified result payload for a done job (checksum-checked)."""
    return integrity.read_artifact(result_path, schema=hashing.SCHEMA_VERSION)
