"""Durable mission registry: the service's source of truth.

One SQLite database (WAL journal mode, ``synchronous=FULL``) holds every
submission the fleet service has ever accepted, keyed by the
content-addressed submission fingerprint
(:func:`repro.experiments.submission.submission_fingerprint`).  The
registry is what makes the service survive ``kill -9``:

* **exactly-once admission** — the fingerprint is the primary key, so a
  duplicate submission *cannot* create a second job; it bumps the
  original's ``submit_count`` and returns the existing record
  (``service.deduped``).
* **monotonic state machine** — ``queued → leased → running →
  done | failed | dead``; ``failed`` requeues (with backoff) until the
  retry budget is spent, ``done``/``dead`` are terminal.  Every
  transition is a guarded SQL ``UPDATE ... WHERE state IN (...) AND
  lease_token = ?`` inside an immediate transaction, committed —
  durably, thanks to ``synchronous=FULL`` — *before* the caller
  acknowledges anything, so a crash can lose at most work, never state.
* **leases, not locks** — a worker owns a job through a random lease
  token with a heartbeat-extended deadline.  A lease whose deadline
  passes (holder killed, hung, or partitioned) is requeued against the
  retry budget; a stale holder's late ``complete()``/``fail()`` is
  rejected by the token guard, so a job can never be double-acknowledged.
  Each lease records its holder's pid and ``host:pid:token`` owner, so a
  restart can tell a dead holder's leases from its own even when it got
  the dead holder's pid back (:func:`repro.exec.integrity.holder_alive`).
* **dead letters, never silence** — a job that exhausts its budget moves
  to the terminal state ``dead`` with its last error and ``finished_at``
  kept on its row, mirroring the reliable bus's DLQ
  (:mod:`repro.support.reliable`); :meth:`MissionRegistry.dead_letters`
  lists those rows.

Clients in other processes open the same file; SQLite's locking plus the
guarded transitions make every operation linearizable.  All timestamps
are caller-supplied (``now``), keeping the state machine testable
without clock patching.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.exec import integrity
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics
from repro.service.config import DEFAULT_QUEUE_DEPTH
from repro.service.errors import (
    QueueFullError,
    RegistryUnavailable,
    StateTransitionError,
    UnknownJobError,
)
from repro.service.queue import ACTIVE_STATES

log = get_logger("repro.service.registry")

#: Every legal source → destination edge of the job state machine.
VALID_TRANSITIONS = {
    "queued": ("leased",),
    "failed": ("leased", "dead"),
    "leased": ("running", "queued", "failed", "dead"),
    "running": ("done", "queued", "failed", "dead"),
    "done": (),
    "dead": (),
}

TERMINAL_STATES = ("done", "dead")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    fingerprint    TEXT PRIMARY KEY,
    job_id         TEXT NOT NULL UNIQUE,
    tenant         TEXT NOT NULL DEFAULT '',
    quality        TEXT NOT NULL DEFAULT 'auto',
    config         TEXT NOT NULL,
    state          TEXT NOT NULL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL,
    submit_count   INTEGER NOT NULL DEFAULT 1,
    completions    INTEGER NOT NULL DEFAULT 0,
    lease_token    TEXT,
    lease_owner    TEXT,
    lease_pid      INTEGER,
    leased_at      REAL,
    lease_deadline REAL,
    not_before     REAL NOT NULL DEFAULT 0,
    submitted_at   REAL NOT NULL,
    finished_at    REAL,
    result_path    TEXT,
    result_digest  TEXT,
    error          TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, not_before, submitted_at);
CREATE TABLE IF NOT EXISTS transitions (
    job_id TEXT NOT NULL,
    at     REAL NOT NULL,
    src    TEXT NOT NULL,
    dst    TEXT NOT NULL,
    detail TEXT
);
CREATE TABLE IF NOT EXISTS probes (
    owner      TEXT PRIMARY KEY,
    pid        INTEGER NOT NULL,
    state      TEXT NOT NULL,
    updated_at REAL NOT NULL,
    detail     TEXT
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_JOB_COLUMNS = (
    "fingerprint", "job_id", "tenant", "quality", "config", "state",
    "attempts", "max_attempts", "submit_count", "completions",
    "lease_token", "lease_owner", "lease_pid", "leased_at", "lease_deadline",
    "not_before", "submitted_at", "finished_at", "result_path",
    "result_digest", "error",
)


@dataclass(frozen=True)
class JobRecord:
    """One registry row, as plain data."""

    fingerprint: str
    job_id: str
    tenant: str
    quality: str
    config: dict
    state: str
    attempts: int
    max_attempts: int
    submit_count: int
    completions: int
    lease_token: Optional[str]
    lease_owner: Optional[str]
    lease_pid: Optional[int]
    leased_at: Optional[float]
    lease_deadline: Optional[float]
    not_before: float
    submitted_at: float
    finished_at: Optional[float]
    result_path: Optional[str]
    result_digest: Optional[str]
    error: Optional[str]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in _JOB_COLUMNS}
        return out


def _record(row) -> JobRecord:
    data = dict(zip(_JOB_COLUMNS, row))
    data["config"] = json.loads(data["config"])
    return JobRecord(**data)


def process_owner() -> str:
    """This process's lease and probe owner, ``host:pid:token``."""
    return f"{socket.gethostname()}:{os.getpid()}:{integrity.PROCESS_TOKEN}"


def _owner_token(owner: Optional[str]) -> Optional[str]:
    """Process token of a ``host:pid:token`` owner; None for older owners."""
    parts = (owner or "").split(":")
    return parts[2] if len(parts) == 3 else None


def _build(path: Path) -> None:
    """Create a WAL registry with its schema at ``path``, atomically.

    The journal mode is stored in the file, so it is set once here, on a
    temporary file no other connection can see, and nobody switches it
    later: two connections switching a fresh file to WAL at once made
    one fail with ``database is locked``.  ``os.link`` publishes the
    finished file and keeps a registry another creator placed first.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        conn = sqlite3.connect(tmp, isolation_level=None)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)
        finally:
            conn.close()  # checkpoints the WAL into the file and removes it
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
    finally:
        for leftover in (tmp, Path(f"{tmp}-wal"), Path(f"{tmp}-shm")):
            leftover.unlink(missing_ok=True)


def _count_service(name: str, help_: str, tenant: str, n: float = 1) -> None:
    if _obs.enabled:
        _metrics.counter(f"service.{name}", help_).inc(n, tenant=tenant)


class MissionRegistry:
    """Durable job store shared by the service and its clients.

    Thread-safe within a process (one connection behind a lock) and
    multi-process-safe across processes (SQLite WAL + immediate
    transactions + token-guarded transitions).
    """

    def __init__(self, conn: sqlite3.Connection, path: Path):
        self._conn = conn
        self._lock = threading.RLock()
        self.path = path

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, *, create: bool = False,
             busy_timeout_s: float = 5.0) -> "MissionRegistry":
        """Open (or, with ``create=True``, initialize) a registry.

        A new registry is built under a temporary name and linked into
        place only once it is a WAL database with its schema, so a
        client polling ``path`` finds either nothing or a whole registry.

        Raises:
            RegistryUnavailable: the path does not hold a registry, or
                the database is locked past the busy timeout.
        """
        path = Path(path)
        if not create and not path.exists():
            raise RegistryUnavailable(
                f"no service registry at {path} (start one with 'repro serve')")
        try:
            if create and not path.exists():
                _build(path)
            conn = sqlite3.connect(
                path, timeout=busy_timeout_s, isolation_level=None,
                check_same_thread=False,
            )
            # FULL: a committed transition survives kill -9 of the whole
            # box's power, not just of the process — state is persisted
            # before anything is acknowledged.
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
            if create:
                conn.executescript(_SCHEMA)
            else:
                found = conn.execute(
                    "SELECT name FROM sqlite_master WHERE name='jobs'").fetchone()
                if found is None:
                    conn.close()
                    raise RegistryUnavailable(
                        f"{path} exists but is not a fleet-service registry")
        except (sqlite3.Error, OSError) as exc:
            raise RegistryUnavailable(
                f"cannot open service registry at {path}: {exc}") from exc
        return cls(conn, path)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "MissionRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _tx(self):
        """Immediate write transaction under the in-process lock."""
        return _Transaction(self._conn, self._lock, self.path)

    # -- meta / configuration ---------------------------------------------

    def set_meta(self, **values) -> None:
        """Record service parameters (queue depth, workers) for clients."""
        with self._tx() as cur:
            for key, value in values.items():
                cur.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                    (key, json.dumps(value)))

    def get_meta(self, key: str, default=None):
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key=?", (key,)).fetchone()
            except sqlite3.Error as exc:
                raise RegistryUnavailable(
                    f"registry at {self.path} unavailable: {exc}") from exc
        return default if row is None else json.loads(row[0])

    # -- admission ---------------------------------------------------------

    def submit(self, *, fingerprint: str, config: dict, quality: str = "auto",
               tenant: str = "", now: float, max_attempts: Optional[int] = None,
               queue_depth: Optional[int] = None,
               retry_after: Optional[Callable[[int], float]] = None,
               ) -> tuple[JobRecord, bool]:
        """Admit one submission; returns ``(record, deduped)``.

        A fingerprint already present — in *any* state, including done —
        is deduplicated: the stored record is returned unchanged apart
        from its bumped ``submit_count``.  New work is admission-checked
        against the bounded backlog first.

        Raises:
            QueueFullError: the backlog is at the configured depth.
        """
        limit = queue_depth if queue_depth is not None else int(
            self.get_meta("queue_depth", DEFAULT_QUEUE_DEPTH))
        budget = max_attempts if max_attempts is not None else int(
            self.get_meta("max_attempts", 3))
        with self._tx() as cur:
            row = cur.execute(
                f"SELECT {','.join(_JOB_COLUMNS)} FROM jobs WHERE fingerprint=?",
                (fingerprint,)).fetchone()
            if row is not None:
                cur.execute(
                    "UPDATE jobs SET submit_count = submit_count + 1 "
                    "WHERE fingerprint=?", (fingerprint,))
                record = _record(row)
                _count_service("submitted", "mission submissions accepted", tenant)
                _count_service("deduped",
                               "submissions deduplicated onto an existing job",
                               tenant)
                return record, True
            placeholders = ",".join("?" for _ in ACTIVE_STATES)
            depth = cur.execute(
                f"SELECT COUNT(*) FROM jobs WHERE state IN ({placeholders})",
                ACTIVE_STATES).fetchone()[0]
            if depth >= limit:
                hint = retry_after(depth) if retry_after is not None else max(
                    1.0, float(depth))
                _count_service("rejected",
                               "submissions rejected by admission control", tenant)
                raise QueueFullError(depth, limit, hint)
            job_id = "j" + fingerprint[:12]
            cur.execute(
                "INSERT INTO jobs (fingerprint, job_id, tenant, quality, config,"
                " state, attempts, max_attempts, submit_count, completions,"
                " not_before, submitted_at) "
                "VALUES (?, ?, ?, ?, ?, 'queued', 0, ?, 1, 0, 0, ?)",
                (fingerprint, job_id, tenant, quality,
                 json.dumps(config, sort_keys=True), budget, now))
            self._log_transition(cur, job_id, now, "-", "queued", "submitted")
        _count_service("submitted", "mission submissions accepted", tenant)
        log.info("job-submitted", job_id=job_id, fingerprint=fingerprint,
                 tenant=tenant)
        return self.get(job_id), False

    # -- lease protocol ------------------------------------------------------

    def lease_next(self, *, owner: str, pid: int, now: float,
                   lease_s: float) -> Optional[JobRecord]:
        """Atomically claim the oldest due job, or ``None``.

        The claim grants a fresh random lease token and a deadline
        ``now + lease_s``; the attempt is charged to the retry budget at
        lease time, so a crash-looping job converges on ``dead`` no
        matter where in its life it keeps dying.
        """
        token = secrets.token_hex(8)
        with self._tx() as cur:
            row = cur.execute(
                "SELECT job_id, state FROM jobs "
                "WHERE state IN ('queued','failed') AND not_before <= ? "
                "AND attempts < max_attempts "
                "ORDER BY submitted_at, job_id LIMIT 1", (now,)).fetchone()
            if row is None:
                return None
            job_id, src = row
            cur.execute(
                "UPDATE jobs SET state='leased', lease_token=?, lease_owner=?,"
                " lease_pid=?, leased_at=?, lease_deadline=?,"
                " attempts = attempts + 1 "
                "WHERE job_id=? AND state IN ('queued','failed')",
                (token, owner, pid, now, now + lease_s, job_id))
            if cur.rowcount != 1:
                return None
            self._log_transition(cur, job_id, now, src, "leased", owner)
            record = self._get(cur, job_id)
        _count_service("leased", "job leases granted to workers", record.tenant)
        return record

    def mark_running(self, job_id: str, token: str, now: float) -> bool:
        """``leased → running``; False when the lease was lost meanwhile."""
        with self._tx() as cur:
            cur.execute(
                "UPDATE jobs SET state='running' "
                "WHERE job_id=? AND lease_token=? AND state='leased'",
                (job_id, token))
            if cur.rowcount != 1:
                return False
            self._log_transition(cur, job_id, now, "leased", "running", "")
            return True

    def heartbeat(self, job_id: str, token: str, *, now: float,
                  lease_s: float) -> bool:
        """Extend a live lease's deadline; False when the lease is gone."""
        with self._tx() as cur:
            cur.execute(
                "UPDATE jobs SET lease_deadline=? "
                "WHERE job_id=? AND lease_token=? AND state IN ('leased','running')",
                (now + lease_s, job_id, token))
            return cur.rowcount == 1

    def complete(self, job_id: str, token: str, *, result_path: str,
                 result_digest: str, now: float) -> bool:
        """``running → done`` guarded by the lease token.

        Returns False (and changes nothing) when the lease was lost —
        a requeued twin may be running, and only the current token
        holder may acknowledge.  The transition is durably committed
        before True is returned: that ordering is the exactly-once
        acknowledgement contract.
        """
        with self._tx() as cur:
            cur.execute(
                "UPDATE jobs SET state='done', completions = completions + 1,"
                " result_path=?, result_digest=?, finished_at=?, error=NULL,"
                " lease_deadline=NULL "
                "WHERE job_id=? AND lease_token=? AND state IN ('leased','running')",
                (result_path, result_digest, now, job_id, token))
            if cur.rowcount != 1:
                return False
            self._log_transition(cur, job_id, now, "running", "done", "")
            tenant = cur.execute(
                "SELECT tenant FROM jobs WHERE job_id=?", (job_id,)).fetchone()[0]
        _count_service("completed", "jobs completed exactly once", tenant)
        return True

    def fail(self, job_id: str, token: str, *, error: str, now: float,
             backoff_s: float) -> Optional[str]:
        """Record a failed attempt: requeue with backoff, or dead-letter.

        Returns the resulting state (``"failed"`` or ``"dead"``), or
        ``None`` when the lease token no longer owns the job.
        """
        with self._tx() as cur:
            row = cur.execute(
                "SELECT attempts, max_attempts, state FROM jobs "
                "WHERE job_id=? AND lease_token=? AND state IN ('leased','running')",
                (job_id, token)).fetchone()
            if row is None:
                return None
            attempts, budget, src = row
            return self._fail_locked(cur, job_id, src, attempts, budget,
                                     error, now, backoff_s)

    def recover_expired(self, *, now: float,
                        backoff: Callable[[int], float]) -> list[str]:
        """Requeue (or dead-letter) every lease whose deadline passed.

        ``backoff(attempts)`` supplies the requeue delay.  Returns the
        affected job ids.  The stale holder keeps its token copy, but a
        late ``complete()``/``fail()`` from it is rejected — the token
        is cleared here, so only the *next* leaseholder can acknowledge.
        """
        return self._recover(
            "state IN ('leased','running') AND lease_deadline IS NOT NULL "
            "AND lease_deadline < ?", (now,), reason="lease-expired",
            now=now, backoff=backoff)

    def recover_orphans(self, *, now: float,
                        backoff: Callable[[int], float]) -> list[str]:
        """Requeue in-flight jobs whose leaseholder process is dead.

        Startup crash recovery: after a ``kill -9`` of the whole service
        the dead workers' leases may be nowhere near their deadlines;
        waiting them out would stall the restart, and the liveness check
        on the lease's pid and owner token is conclusive on a single host.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, lease_pid, lease_owner FROM jobs "
                "WHERE state IN ('leased','running') AND lease_pid IS NOT NULL"
            ).fetchall()
        dead = [job_id for job_id, pid, owner in rows
                if not integrity.holder_alive(int(pid), _owner_token(owner))]
        recovered = []
        for job_id in dead:
            recovered += self._recover(
                "job_id = ? AND state IN ('leased','running')", (job_id,),
                reason="owner-dead", now=now, backoff=backoff)
        return recovered

    def _recover(self, where: str, args: tuple, *, reason: str, now: float,
                 backoff: Callable[[int], float]) -> list[str]:
        with self._tx() as cur:
            rows = cur.execute(
                "SELECT job_id, state, attempts, max_attempts, tenant "
                f"FROM jobs WHERE {where}", args).fetchall()
            recovered = []
            for job_id, src, attempts, budget, tenant in rows:
                if attempts >= budget:
                    self._dead_letter_locked(cur, job_id, src,
                                             f"{reason} (budget spent)", now)
                    _count_service("dead", "jobs dead-lettered", tenant)
                else:
                    cur.execute(
                        "UPDATE jobs SET state='queued', lease_token=NULL,"
                        " lease_owner=NULL, lease_pid=NULL, leased_at=NULL,"
                        " lease_deadline=NULL, not_before=?, error=? "
                        "WHERE job_id=?",
                        (now + backoff(attempts), reason, job_id))
                    self._log_transition(cur, job_id, now, src, "queued", reason)
                    _count_service("requeued", "expired/orphaned leases requeued",
                                   tenant)
                log.warning("lease-recovered", job_id=job_id, reason=reason,
                            attempts=attempts)
                recovered.append(job_id)
        return recovered

    def _fail_locked(self, cur, job_id: str, src: str, attempts: int,
                     budget: int, error: str, now: float,
                     backoff_s: float) -> str:
        tenant = cur.execute(
            "SELECT tenant FROM jobs WHERE job_id=?", (job_id,)).fetchone()[0]
        if attempts >= budget:
            self._dead_letter_locked(cur, job_id, src, error, now)
            _count_service("dead", "jobs dead-lettered", tenant)
            return "dead"
        cur.execute(
            "UPDATE jobs SET state='failed', lease_token=NULL, lease_owner=NULL,"
            " lease_pid=NULL, leased_at=NULL, lease_deadline=NULL,"
            " not_before=?, error=? WHERE job_id=?",
            (now + backoff_s, error, job_id))
        self._log_transition(cur, job_id, now, src, "failed", error)
        _count_service("failed", "job attempts that failed and were requeued",
                       tenant)
        return "failed"

    def _dead_letter_locked(self, cur, job_id: str, src: str, error: str,
                            now: float) -> None:
        cur.execute(
            "UPDATE jobs SET state='dead', lease_token=NULL, lease_owner=NULL,"
            " lease_pid=NULL, leased_at=NULL, lease_deadline=NULL,"
            " finished_at=?, error=? WHERE job_id=?", (now, error, job_id))
        self._log_transition(cur, job_id, now, src, "dead", error)

    def _log_transition(self, cur, job_id: str, now: float, src: str,
                        dst: str, detail: str) -> None:
        if dst not in ("queued", "leased", "running", "done", "failed", "dead"):
            raise StateTransitionError(f"unknown job state {dst!r}")
        cur.execute(
            "INSERT INTO transitions (job_id, at, src, dst, detail) "
            "VALUES (?, ?, ?, ?, ?)", (job_id, now, src, dst, detail))

    # -- queries -----------------------------------------------------------

    def get(self, ref: str) -> JobRecord:
        """Look a job up by job id, fingerprint, or a unique prefix."""
        with self._lock:
            record = self._find(self._conn, ref)
        if record is None:
            raise UnknownJobError(f"no job {ref!r} in registry {self.path}")
        return record

    def _get(self, cur, job_id: str) -> JobRecord:
        row = cur.execute(
            f"SELECT {','.join(_JOB_COLUMNS)} FROM jobs WHERE job_id=?",
            (job_id,)).fetchone()
        return _record(row)

    def _find(self, conn, ref: str) -> Optional[JobRecord]:
        cols = ",".join(_JOB_COLUMNS)
        row = conn.execute(
            f"SELECT {cols} FROM jobs WHERE job_id=? OR fingerprint=?",
            (ref, ref)).fetchone()
        if row is not None:
            return _record(row)
        rows = conn.execute(
            f"SELECT {cols} FROM jobs WHERE job_id LIKE ? OR fingerprint LIKE ?",
            (ref + "%", ref + "%")).fetchall()
        if len(rows) == 1:
            return _record(rows[0])
        return None

    def jobs(self, state: Optional[str] = None) -> list[JobRecord]:
        cols = ",".join(_JOB_COLUMNS)
        with self._lock:
            if state is None:
                rows = self._conn.execute(
                    f"SELECT {cols} FROM jobs ORDER BY submitted_at, job_id"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    f"SELECT {cols} FROM jobs WHERE state=? "
                    "ORDER BY submitted_at, job_id", (state,)).fetchall()
        return [_record(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """Job counts by state (every state present, zero-filled)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state").fetchall()
        out = {state: 0 for state in VALID_TRANSITIONS}
        out.update(dict(rows))
        return out

    def active_count(self) -> int:
        placeholders = ",".join("?" for _ in ACTIVE_STATES)
        with self._lock:
            return self._conn.execute(
                f"SELECT COUNT(*) FROM jobs WHERE state IN ({placeholders})",
                ACTIVE_STATES).fetchone()[0]

    def mean_job_s(self) -> Optional[float]:
        """Mean lease-to-done time of done jobs; None before the first."""
        with self._lock:
            return self._conn.execute(
                "SELECT AVG(finished_at - leased_at) FROM jobs "
                "WHERE state='done'").fetchone()[0]

    def dead_letters(self) -> list[dict]:
        """Dead jobs with their last error, oldest death first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, fingerprint, tenant, attempts, error, finished_at "
                "FROM jobs WHERE state='dead' ORDER BY finished_at").fetchall()
        return [dict(zip(("job_id", "fingerprint", "tenant", "attempts",
                          "error", "died_at"), row)) for row in rows]

    def transitions(self, job_id: str) -> list[tuple]:
        with self._lock:
            return self._conn.execute(
                "SELECT at, src, dst, detail FROM transitions WHERE job_id=? "
                "ORDER BY at, rowid", (job_id,)).fetchall()

    # -- health probes -------------------------------------------------------

    def set_probe(self, *, owner: str, pid: int, state: str, now: float,
                  detail: str = "") -> None:
        """Record the serving process's liveness/readiness heartbeat."""
        with self._tx() as cur:
            cur.execute(
                "INSERT INTO probes (owner, pid, state, updated_at, detail) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(owner) DO UPDATE SET pid=excluded.pid,"
                " state=excluded.state, updated_at=excluded.updated_at,"
                " detail=excluded.detail",
                (owner, pid, state, now, detail))

    def probe(self) -> Optional[dict]:
        """The most recent service probe, with a computed liveness bit."""
        with self._lock:
            row = self._conn.execute(
                "SELECT owner, pid, state, updated_at, detail FROM probes "
                "ORDER BY updated_at DESC LIMIT 1").fetchone()
        if row is None:
            return None
        owner, pid, state, updated_at, detail = row
        live = integrity.holder_alive(int(pid), _owner_token(owner))
        return {
            "owner": owner, "pid": pid, "state": state,
            "updated_at": updated_at, "detail": detail,
            "live": live, "ready": state == "ready" and live,
        }


class _Transaction:
    """``BEGIN IMMEDIATE`` write transaction, lock-guarded, error-wrapped."""

    def __init__(self, conn: sqlite3.Connection, lock: threading.RLock,
                 path: Path):
        self._conn = conn
        self._lock = lock
        self._path = path

    def __enter__(self) -> sqlite3.Cursor:
        self._lock.acquire()
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as exc:
            self._lock.release()
            raise RegistryUnavailable(
                f"registry at {self._path} unavailable: {exc}") from exc
        return self._conn.cursor()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._conn.execute("COMMIT")
            else:
                self._conn.execute("ROLLBACK")
        except sqlite3.Error as db_exc:
            if exc_type is None:
                raise RegistryUnavailable(
                    f"registry at {self._path} unavailable: {db_exc}"
                ) from db_exc
        finally:
            self._lock.release()
