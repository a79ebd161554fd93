"""Persistence for the analysis-ready dataset.

A full mission simulation takes minutes; the analyses take seconds.
``save_sensing``/``load_sensing`` round-trip a :class:`MissionSensing`
so the expensive step can be cached between analysis sessions (the real
deployment's equivalent was pulling the SD cards once).

A saved dataset is one :mod:`repro.exec.integrity` artifact, the
envelope every stored truth, day and service result uses: the run's
:class:`~repro.core.config.MissionConfig` (fault plan included), its
badge-day summaries and its pairwise data, pickled whole.  The write is
atomic, the payload is checksum-verified on every load, and an artifact
that fails verification is quarantined next to itself — never silently
served.  A dataset saved in an older format (a schema-1 artifact or a
directory of ``.npz`` files) is refused and left where it is: it caches
a deterministic simulation, and ``repro save`` re-creates it.  On load
the data is additionally routed through the :mod:`repro.quality` ingest
gate unless the caller opts out.
"""

from __future__ import annotations

from pathlib import Path

from repro.analytics.dataset import MissionSensing
from repro.badges.assignment import BadgeAssignment
from repro.core.errors import ConfigError, DataError
from repro.crew.roster import icares_roster
from repro.exec.integrity import (
    ArtifactError,
    ArtifactSchemaMismatch,
    quarantine,
    read_artifact,
    write_artifact,
)
from repro.habitat.floorplan import lunares_floorplan
from repro.quality.gate import gate_sensing

#: Single-file artifact a saved dataset lives in (integrity envelope).
ARTIFACT_NAME = "sensing.artifact"
#: Envelope schema version for saved sensing datasets.  Schema 2 pickles
#: ``{"cfg", "summaries", "pairwise"}``; schema 1 held a key/array store.
SENSING_SCHEMA = 2


def save_sensing(sensing: MissionSensing, path: str | Path) -> None:
    """Write a sensing dataset to a directory.

    The dataset is persisted as a single checksummed artifact
    (atomic temp-file + rename write; verified byte-for-byte on load).
    """
    payload = {"cfg": sensing.cfg, "summaries": sensing.summaries,
               "pairwise": sensing.pairwise}
    write_artifact(Path(path) / ARTIFACT_NAME, payload, SENSING_SCHEMA)


def load_sensing(path: str | Path, quality: str = "gate") -> MissionSensing:
    """Read a sensing dataset previously written by :func:`save_sensing`.

    The artifact's checksum is verified before anything is unpickled; an
    artifact that fails verification is moved to a ``quarantine/``
    sibling and a :class:`~repro.core.errors.DataError` raised — corrupt
    bytes are never served.  A missing dataset, or one saved in an older
    format, raises a ``DataError`` and leaves the directory untouched.

    Args:
        path: directory written by :func:`save_sensing`.
        quality: ``"gate"`` (default) routes the loaded data through the
            validating ingest gate (repairing / quarantining bad
            badge-days and attaching a
            :class:`~repro.quality.report.DataQualityReport`);
            ``"strict"`` additionally raises if any badge-day is
            quarantined; ``"off"`` serves the bytes exactly as stored.
    """
    if quality not in ("off", "gate", "strict"):
        raise ConfigError(
            f"quality must be one of off/gate/strict, got {quality!r}")
    root = Path(path)
    artifact = root / ARTIFACT_NAME
    try:
        payload = read_artifact(artifact, SENSING_SCHEMA)
    except (FileNotFoundError, NotADirectoryError):
        if not any(root.glob("*.npz")):
            raise DataError(f"no saved dataset at {root}") from None
        raise _older_format(root) from None
    except ArtifactSchemaMismatch as exc:
        raise _older_format(root) from exc
    except ArtifactError as exc:
        quarantine(artifact, root, store="sensing")
        raise DataError(
            f"saved dataset at {root} failed integrity verification "
            f"({exc}); the store was quarantined"
        ) from exc
    cfg = payload["cfg"]
    sensing = MissionSensing(
        cfg=cfg, plan=lunares_floorplan(),
        assignment=BadgeAssignment(cfg=cfg, roster=icares_roster(cfg.crew_size)),
        summaries=payload["summaries"], pairwise=payload["pairwise"],
    )
    if quality == "off":
        return sensing
    gated, _report = gate_sensing(sensing, strict=(quality == "strict"))
    return gated


def _older_format(root: Path) -> DataError:
    return DataError(
        f"saved dataset at {root} predates dataset schema {SENSING_SCHEMA}; "
        f"run `repro save` again to re-create it")
