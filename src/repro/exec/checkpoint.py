"""Crash-recovery checkpoint journal for mission runs.

A multi-day mission sweep on Mars-analog infrastructure has no operator
to restart it: a killed process must not cost the whole run (the ICAres-1
deployment itself lost days of data to dead batteries and full SD cards).
The :class:`CheckpointJournal` makes the execution engine crash-safe:

* as each :class:`~repro.exec.executor.DayOutcome` completes — serially,
  from a pool worker, or salvaged out of a broken pool — it is written as
  one atomic, checksummed artifact (:mod:`repro.exec.integrity`) under
  ``<root>/journal-<sensing-key>/dayNN.ckpt``;
* a resumed run (``ExecutionConfig(resume=True)`` / ``repro run
  --resume``) restores every journaled day that passes checksum
  verification and re-executes only the remainder, **bit-identical** to
  an uninterrupted run (day outcomes are self-contained and the SD-card
  accountant is rebuilt by replaying outcomes in day order);
* journals are keyed by the config's sensing fingerprint, so a resume
  against a changed config simply finds an empty journal — stale
  checkpoints can never leak into the wrong mission;
* a corrupt or truncated day record (the crash may have been mid-write,
  the disk may be failing) is quarantined and recomputed, never served.

The journal is append-only per day and idempotent: re-recording a day a
previous run already journaled atomically replaces an identical artifact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.core.config import MissionConfig
from repro.core.errors import DataError
from repro.exec import hashing, integrity
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics

if TYPE_CHECKING:
    from repro.exec.executor import DayOutcome

log = get_logger("repro.exec.checkpoint")

#: Name of the per-fingerprint exclusive-lease marker inside a journal.
LOCK_NAME = "journal.lock"


class JournalBusyError(DataError):
    """Another live process holds this sensing fingerprint's journal.

    Two resumers interleaving writes into one journal would be
    indistinguishable from corruption after the fact; the second opener
    gets this clean, catchable error instead.
    """


class CheckpointJournal:
    """Per-day checkpoint store for one mission config.

    All records live under ``<root>/journal-<sensing-fingerprint>/``;
    two configs never share a journal, and a schema bump (see
    :mod:`repro.exec.hashing`) orphans old journals instead of
    resuming from incompatible artifacts.
    """

    def __init__(self, root: str | Path, cfg: MissionConfig, *,
                 exclusive: bool = False, owner: str = ""):
        self.root = Path(root)
        self.cfg = cfg
        self.dir = self.root / f"journal-{hashing.sensing_fingerprint(cfg)}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.recorded = 0
        self.quarantined = 0
        #: Days restored by the last :meth:`load_completed` call.
        self.resumed_days: list[int] = []
        self._lock_path = self.dir / LOCK_NAME
        self._locked = False
        integrity.sweep_stale_tmp(self.root)
        if exclusive:
            self.acquire(owner)

    # -- exclusive lease -------------------------------------------------
    #
    # Two processes resuming the same sensing fingerprint would interleave
    # writes into one directory; an ``O_EXCL`` lease marker (pid, process
    # token and owner recorded inside) makes the journal single-writer.  A
    # marker whose holder is no longer alive (``integrity.holder_alive``)
    # is *stale* — the holder was killed without releasing — and may be
    # broken; the break goes through ``os.rename`` to a unique name so two
    # concurrent breakers can never each unlink the other's freshly
    # acquired lock.

    def acquire(self, owner: str = "") -> None:
        """Take the journal's exclusive lease (idempotent per instance).

        Raises:
            JournalBusyError: a live process already holds the lease.
        """
        if self._locked:
            return
        payload = json.dumps({
            "pid": os.getpid(), "token": integrity.PROCESS_TOKEN,
            "owner": owner or "", "acquired_at": time.time(),
        }).encode("utf-8")
        for attempt in range(2):
            try:
                fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._read_lock()
                alive = holder is not None and integrity.holder_alive(
                    int(holder.get("pid", -1)), holder.get("token"))
                if attempt == 0 and not alive:
                    self._break_stale_lock()
                    continue
                raise JournalBusyError(
                    f"journal {self.dir} is held by "
                    f"{holder or 'an unreadable lock'}; a second resumer would "
                    "interleave checkpoint writes"
                ) from None
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            self._locked = True
            return

    def _read_lock(self) -> Optional[dict]:
        try:
            return json.loads(self._lock_path.read_text())
        except (OSError, ValueError):
            return None  # vanished, or crashed mid-write: treat as stale

    def _break_stale_lock(self) -> None:
        # Rename-then-unlink: only one breaker wins the rename, so a
        # racer can never unlink the lock the winner is about to take.
        stale = self._lock_path.with_name(
            f"{LOCK_NAME}.stale.{os.getpid()}.{time.time_ns()}")
        try:
            os.rename(self._lock_path, stale)
        except OSError:
            return  # someone else broke (or took) it first
        log.warning("journal-stale-lock-broken", journal=str(self.dir))
        try:
            os.unlink(stale)
        except OSError:
            pass

    def close(self) -> None:
        """Release the exclusive lease (no-op if never acquired)."""
        if self._locked:
            try:
                os.unlink(self._lock_path)
            except OSError:
                pass
            self._locked = False

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def day_path(self, day: int) -> Path:
        return self.dir / f"day{day:02d}.ckpt"

    def record(self, outcome: "DayOutcome") -> None:
        """Journal one completed day (atomic, checksummed, idempotent).

        Worker telemetry snapshots are transient driver-merge payloads
        and are stripped before persisting, exactly as the cache does.
        """
        if outcome.telemetry is not None:
            outcome = dataclasses.replace(outcome, telemetry=None)
        integrity.write_artifact(
            self.day_path(outcome.day), outcome, schema=hashing.SCHEMA_VERSION
        )
        self.recorded += 1
        if _obs.enabled:
            _metrics.counter(
                "exec.checkpointed_days", "day outcomes journaled for crash recovery"
            ).inc()

    def load_day(self, day: int) -> Optional["DayOutcome"]:
        """One verified journaled day, or ``None`` (missing or quarantined)."""
        path = self.day_path(day)
        try:
            return integrity.read_artifact(path, schema=hashing.SCHEMA_VERSION)
        except FileNotFoundError:
            return None
        except integrity.ArtifactError as exc:
            log.warning("checkpoint-rejected", path=str(path), day=day,
                        error=repr(exc))
            if integrity.quarantine(path, self.root, store="checkpoint") is not None:
                self.quarantined += 1
            return None

    def load_completed(self, days: list[int]) -> dict[int, "DayOutcome"]:
        """Verified outcomes for every journaled day in ``days``.

        Populates :attr:`resumed_days` and the ``exec.resumed_days``
        telemetry counter; corrupt records are quarantined (and will be
        recomputed by the caller), so a resume never trades integrity
        for speed.
        """
        restored: dict[int, "DayOutcome"] = {}
        for day in days:
            outcome = self.load_day(day)
            if outcome is not None:
                restored[day] = outcome
        self.resumed_days = sorted(restored)
        if restored:
            log.info("checkpoint-resumed", days=self.resumed_days,
                     journal=str(self.dir))
            if _obs.enabled:
                _metrics.counter(
                    "exec.resumed_days", "day outcomes restored from a checkpoint journal"
                ).inc(len(restored))
        return restored

    def journaled_days(self) -> list[int]:
        """Days with a journal record on disk (unverified)."""
        days = []
        for path in self.dir.glob("day*.ckpt"):
            try:
                days.append(int(path.stem[3:]))
            except ValueError:
                continue
        return sorted(days)

    def stats(self) -> dict:
        """Plain-data journal counters for ``MissionResult.cache_stats``."""
        return {
            "recorded": self.recorded,
            "resumed_days": list(self.resumed_days),
            "quarantined": self.quarantined,
        }
