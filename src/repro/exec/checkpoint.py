"""The writer lease of the mission day store.

A killed mission run must not cost the whole run: the ICAres-1
deployment itself lost days of data to dead batteries and full SD cards.
Completed days live in one durable store, the
:class:`~repro.exec.cache.MissionCache` (``sensing-<fp>/dayNN.pkl``), and
a :class:`CheckpointJournal` is its per-fingerprint writer lease.  It
holds an ``O_EXCL`` marker, ``sensing-<fp>/journal.lock``, so two live
runs never write one fingerprint's days side by side; the second gets
:class:`JournalBusyError`.  Under the lease a run reads back the days the
store has (:meth:`~CheckpointJournal.load_completed`, which is resume:
bit-identical, since day outcomes are self-contained) and stores each
new day the moment it lands (:meth:`~CheckpointJournal.record`).
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Optional

from repro.core.config import MissionConfig
from repro.core.errors import DataError
from repro.exec import integrity
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics

if TYPE_CHECKING:
    from repro.exec.cache import MissionCache
    from repro.exec.executor import DayOutcome

log = get_logger("repro.exec.checkpoint")

#: Name of the per-fingerprint writer-lease marker in the day directory.
LOCK_NAME = "journal.lock"


class JournalBusyError(DataError):
    """Another live process holds this sensing fingerprint's day store."""


class CheckpointJournal:
    """Writer lease over one mission config's days in a :class:`MissionCache`.

    Constructing it takes the lease; :meth:`close` (or leaving the
    ``with`` block) releases it.
    """

    # Name and methods stay put: perfbench/hooks.py wraps record/load_completed by name.

    def __init__(self, cache: "MissionCache", cfg: MissionConfig, *,
                 owner: str = ""):
        self.cache = cache
        self.cfg = cfg
        self.dir = cache.day_dir(cfg)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.recorded = 0
        #: Days restored by the last :meth:`load_completed` call.
        self.resumed_days: list[int] = []
        self._lock_path = self.dir / LOCK_NAME
        self._locked = False
        self._acquire(owner)

    # -- the lease -------------------------------------------------------
    #
    # The marker records pid, process token and owner.  A marker whose
    # holder is no longer alive (``integrity.holder_alive``) is *stale* —
    # the holder was killed without releasing — and is broken through
    # ``os.rename`` to a unique name, so two concurrent breakers can never
    # each unlink the other's freshly acquired lock.

    def _acquire(self, owner: str) -> None:
        """Take the lease; :class:`JournalBusyError` if a live process has it."""
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
                    f"day store {self.dir} is held by "
                    f"{holder or 'an unreadable lock'}; a second writer would "
                    "interleave day writes"
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
        """Release the lease (idempotent)."""
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

    # -- the days --------------------------------------------------------

    def record(self, outcome: "DayOutcome") -> None:
        """Store one completed day (atomic, checksummed, idempotent)."""
        self.cache.store_day(self.cfg, outcome)
        self.recorded += 1
        if _obs.enabled:
            _metrics.counter(
                "exec.checkpointed_days", "day outcomes stored for crash recovery"
            ).inc()

    def load_completed(self, days: list[int]) -> dict[int, "DayOutcome"]:
        """Verified stored outcomes for every day in ``days`` the store has.

        Populates :attr:`resumed_days` and the ``exec.resumed_days``
        telemetry counter; corrupt records are quarantined by the store
        (and recomputed by the caller), so a resume never trades
        integrity for speed.
        """
        restored: dict[int, "DayOutcome"] = {}
        for day in days:
            outcome = self.cache.load_day(self.cfg, day)
            if outcome is not None:
                restored[day] = outcome
        self.resumed_days = sorted(restored)
        if restored:
            log.info("checkpoint-resumed", days=self.resumed_days,
                     journal=str(self.dir))
            if _obs.enabled:
                _metrics.counter(
                    "exec.resumed_days", "day outcomes restored from the day store"
                ).inc(len(restored))
        return restored

    def stats(self) -> dict:
        """Plain-data counters for ``MissionResult.cache_stats``."""
        return {"recorded": self.recorded,
                "resumed_days": list(self.resumed_days)}
