"""End-to-end artifact integrity: checksums, verification, quarantine.

Every on-disk artifact the execution engine produces — cache entries and
checkpoint-journal records alike — goes through this module.  The paper's
own deployment lost data to silently failing storage (dead batteries,
full SD cards); an unattended million-mission sweep cannot afford to
*trust* bytes it reads back off disk, so artifacts are:

* **checksummed** — the pickled payload's BLAKE2b digest is embedded in
  the artifact envelope and verified on every load;
* **written atomically** — temp file + :func:`os.replace`, so a crash
  mid-write never leaves a partial artifact under the final name;
* **quarantined, not deleted** — a file that fails verification is moved
  into a ``quarantine/`` directory next to the store (preserving the
  evidence for post-mortem, exactly what a field deployment would want)
  and counted in the ``exec.quarantined`` telemetry counter.

The envelope is a single pickle of ``(magic, schema, checksum,
payload_bytes)`` where ``payload_bytes`` is itself a pickle of the
payload object.  Verification recomputes the digest over
``payload_bytes`` before unpickling it, so a bit flip anywhere in the
payload is caught without executing corrupt pickle data; a flip in the
envelope itself surfaces as an unreadable artifact.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import secrets
import tempfile
from pathlib import Path
from typing import Any, Optional

from repro.core.errors import DataError
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics

#: Envelope magic; a load seeing a different magic is a foreign file.
MAGIC = "repro.exec.artifact"

#: Subdirectory (under a store's root) where failed artifacts are kept.
QUARANTINE_DIR = "quarantine"

log = get_logger("repro.exec.integrity")


class ArtifactError(DataError):
    """An artifact could not be read back (base class)."""


class ArtifactCorrupt(ArtifactError):
    """The artifact's embedded checksum did not match its payload."""


class ArtifactUnreadable(ArtifactError):
    """The artifact's envelope could not be parsed (foreign/truncated)."""


def checksum(payload_bytes: bytes) -> str:
    """Hex BLAKE2b digest of a payload's serialized bytes."""
    return hashlib.blake2b(payload_bytes, digest_size=16).hexdigest()


def write_artifact(path: str | Path, payload: Any, schema: int) -> str:
    """Atomically write ``payload`` to ``path`` with an embedded checksum.

    Returns the payload checksum.  The write goes through a temp file in
    the destination directory plus :func:`os.replace`, so readers (and
    crashed writers) never observe a partial artifact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = checksum(payload_bytes)
    # The writer's pid is embedded in the temp name so a *concurrent*
    # store startup (sweep_stale_tmp) can tell a live writer's in-flight
    # temp file from a dead process's orphan and leave it alone.
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.{os.getpid()}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump((MAGIC, schema, digest, payload_bytes), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return digest


def read_artifact(path: str | Path, schema: int) -> Any:
    """Load, verify, and unpickle the artifact at ``path``.

    Raises:
        FileNotFoundError: no artifact at ``path``.
        ArtifactUnreadable: envelope unparsable or from a different
            schema/magic (foreign or pre-checksum file).
        ArtifactCorrupt: checksum mismatch — the payload bytes changed
            since the artifact was written.
    """
    with open(path, "rb") as fh:
        try:
            envelope = pickle.load(fh)
        except FileNotFoundError:
            raise
        except Exception as exc:
            raise ArtifactUnreadable(
                f"artifact {path} has an unparsable envelope: {exc!r}"
            ) from exc
    try:
        magic, found_schema, digest, payload_bytes = envelope
    except (TypeError, ValueError) as exc:
        raise ArtifactUnreadable(
            f"artifact {path} has an unexpected envelope shape"
        ) from exc
    if magic != MAGIC or found_schema != schema:
        raise ArtifactUnreadable(
            f"artifact {path} has foreign header ({magic!r}, {found_schema!r})"
        )
    if checksum(payload_bytes) != digest:
        raise ArtifactCorrupt(f"artifact {path} failed checksum verification")
    try:
        return pickle.loads(payload_bytes)
    except Exception as exc:  # verified bytes that still fail to unpickle
        raise ArtifactUnreadable(
            f"artifact {path} payload does not unpickle: {exc!r}"
        ) from exc


def quarantine(path: str | Path, root: str | Path, *, store: str = "") -> Path | None:
    """Move a failed artifact under ``root/quarantine/``, never deleting it.

    Returns the quarantine path, or ``None`` when the move itself failed
    (in which case the file is left in place).  Name collisions get a
    numeric suffix so repeated corruption of the same key keeps every
    specimen.
    """
    path, root = Path(path), Path(root)
    qdir = root / QUARANTINE_DIR
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = qdir / path.name
        serial = 0
        while dest.exists():
            serial += 1
            dest = qdir / f"{path.name}.{serial}"
        os.replace(path, dest)
    except OSError as exc:
        log.warning("quarantine-failed", path=str(path), error=repr(exc))
        return None
    log.warning("artifact-quarantined", path=str(path), quarantine=str(dest),
                store=store)
    if _obs.enabled:
        _metrics.counter(
            "exec.quarantined", "artifacts that failed verification, by store"
        ).inc(store=store or "unknown")
    return dest


#: Temp-file names look like ``<artifact>.<pid>.<random>.tmp``.
_TMP_PID_RE = re.compile(r"\.(\d+)\.[^.]*\.tmp$")


def pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` currently exists on this host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


#: Random token of this process, recorded beside its pid in locks and
#: leases.  A pid can come back after its process dies: a restarted
#: container's ``repro serve`` runs as PID 1 again, so a record carrying
#: this process's pid may have been written by a dead predecessor.
PROCESS_TOKEN = secrets.token_hex(8)


def holder_alive(pid: int, token: Optional[str] = None) -> bool:
    """Whether the process that wrote a ``(pid, token)`` record still runs.

    A record with this process's pid but another token belongs to a
    predecessor that had the same pid, so it is dead.  A record without
    a token falls back to :func:`pid_alive`.
    """
    if token is not None and pid == os.getpid():
        return token == PROCESS_TOKEN
    return pid_alive(pid)


def sweep_stale_tmp(root: str | Path) -> int:
    """Delete orphaned ``*.tmp`` files under ``root``; returns the count.

    A process that dies between ``mkstemp`` and ``os.replace`` strands
    its temp file; the files are unreferenced by construction (the final
    name only ever appears via ``os.replace``).  Temp names embed the
    writer's pid, and a temp whose writer is *still alive* is skipped —
    two workers persisting the same artifact concurrently must both
    succeed, so one store's startup sweep must never unlink the other's
    in-flight temp file (that race made the victim's ``os.replace`` fail
    and the day quarantine-noisy).  Files without a parseable pid are
    legacy orphans and are swept unconditionally.
    """
    root = Path(root)
    removed = 0
    for tmp in root.rglob("*.tmp"):
        match = _TMP_PID_RE.search(tmp.name)
        if match is not None and pid_alive(int(match.group(1))):
            continue  # a live writer is mid-store; not ours to sweep
        try:
            tmp.unlink()
            removed += 1
        except OSError:
            pass
    if removed:
        log.info("stale-tmp-swept", root=str(root), removed=removed)
    return removed
