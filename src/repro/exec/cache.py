"""Content-addressed, on-disk cache of mission artifacts.

A :class:`MissionCache` persists the two expensive stages of a mission
run so repeated experiments only pay for what their overrides actually
invalidate:

* ``truth-<key>.pkl`` — one :class:`~repro.crew.trace.MissionTruth`,
  keyed by :func:`repro.exec.hashing.truth_fingerprint`.  Ablation
  sweeps over sensing knobs (beacon density, wear compliance, fault
  plans) share a single cached truth.
* ``sensing-<key>/dayNN.pkl`` — one :class:`repro.exec.executor.DayOutcome`
  per instrumented day, keyed by
  :func:`repro.exec.hashing.sensing_fingerprint`.  A warm re-run of an
  unchanged config loads summaries instead of re-simulating, and a rerun
  of a killed mission resumes from the days it finished.  This is the
  only store of completed days; a run writes them under the
  fingerprint's writer lease (:class:`repro.exec.checkpoint.CheckpointJournal`).

Keys embed a schema version (see :mod:`repro.exec.hashing`), so
artifacts written by an older pipeline are simply never matched.  Every
artifact goes through :mod:`repro.exec.integrity`: writes are atomic
(temp file + ``os.replace``) and carry an embedded BLAKE2b payload
checksum; loads verify it, and a file that fails verification is a
**miss** whose bytes are preserved under ``<root>/quarantine/`` — never
silently deleted, never served.  Temp files stranded by a killed writer
are swept when a process first opens the store.

The cache stores only *derived* simulation outputs addressed by the
config that produced them — it is safe to delete the directory at any
time.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.core.config import MissionConfig
from repro.crew.trace import MissionTruth
from repro.exec import hashing, integrity
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics

if TYPE_CHECKING:
    from repro.exec.executor import DayOutcome

log = get_logger("repro.exec.cache")

#: Store roots whose stale temp files this process has swept.
_SWEPT: set[Path] = set()


class MissionCache:
    """Directory-backed store of truth and badge-day artifacts.

    Hit/miss/quarantine counts are kept per stage on the instance
    (surfaced through
    :attr:`repro.experiments.mission.MissionResult.cache_stats`) and
    mirrored into ``exec.cache_*`` / ``exec.quarantined`` telemetry
    counters when :mod:`repro.obs` is enabled.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits: dict[str, int] = {"truth": 0, "day": 0}
        self.misses: dict[str, int] = {"truth": 0, "day": 0}
        self.quarantined: dict[str, int] = {"truth": 0, "day": 0}
        # A process killed between mkstemp and os.replace strands its
        # temp file; final names only ever appear via os.replace, so the
        # sweep can never race a concurrent writer's live artifact.  Once
        # per root and process: the sweep walks the whole store, and a
        # later sweep here could only find temps of dead processes that
        # the next process's startup sweeps anyway.
        if (root := self.root.resolve()) not in _SWEPT:
            _SWEPT.add(root)
            integrity.sweep_stale_tmp(self.root)

    # -- paths ---------------------------------------------------------

    def truth_path(self, cfg: MissionConfig) -> Path:
        return self.root / f"truth-{hashing.truth_fingerprint(cfg)}.pkl"

    def day_dir(self, cfg: MissionConfig) -> Path:
        return self.root / f"sensing-{hashing.sensing_fingerprint(cfg)}"

    def day_path(self, cfg: MissionConfig, day: int) -> Path:
        return self.day_dir(cfg) / f"day{day:02d}.pkl"

    # -- truth artifacts -----------------------------------------------

    def load_truth(self, cfg: MissionConfig) -> Optional[MissionTruth]:
        """Cached ground truth for ``cfg``'s truth fields, or ``None``.

        The returned truth's ``cfg`` is rebound to ``cfg``: its content
        depends only on :data:`repro.exec.hashing.TRUTH_FIELDS`, so one
        cached simulation serves every config that agrees on those, and
        downstream sensing must see the *current* config's sensing knobs.
        """
        truth = self._load("truth", self.truth_path(cfg))
        if truth is None:
            return None
        truth.cfg = cfg
        return truth

    def store_truth(self, cfg: MissionConfig, truth: MissionTruth) -> None:
        self._store("truth", self.truth_path(cfg), truth)

    # -- badge-day artifacts -------------------------------------------

    def load_day(self, cfg: MissionConfig, day: int) -> Optional["DayOutcome"]:
        """Cached summaries + pairwise data for one day, or ``None``."""
        return self._load("day", self.day_path(cfg, day))

    def store_day(self, cfg: MissionConfig, outcome: "DayOutcome") -> None:
        self._store("day", self.day_path(cfg, outcome.day), outcome)

    # -- bookkeeping ---------------------------------------------------

    def stats(self) -> dict:
        """Plain-data counters: hits, misses, and quarantined files by stage."""
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "quarantined": dict(self.quarantined),
        }

    def _count(self, stage: str, hit: bool) -> None:
        (self.hits if hit else self.misses)[stage] += 1
        if _obs.enabled:
            _metrics.counter(
                "exec.cache_lookups", "mission-cache lookups by stage and result"
            ).inc(stage=stage, result="hit" if hit else "miss")

    # -- storage -------------------------------------------------------

    def _load(self, stage: str, path: Path) -> Any:
        try:
            payload = integrity.read_artifact(path, schema=hashing.SCHEMA_VERSION)
        except FileNotFoundError:
            self._count(stage, hit=False)
            return None
        except integrity.ArtifactError as exc:
            # Corrupt or foreign artifact: a miss, never served.  The file
            # is moved to quarantine so the evidence survives post-mortem.
            log.warning("cache-artifact-rejected", path=str(path),
                        stage=stage, error=repr(exc))
            if integrity.quarantine(path, self.root, store="cache") is not None:
                self.quarantined[stage] += 1
            self._count(stage, hit=False)
            return None
        self._count(stage, hit=True)
        return payload

    def _store(self, stage: str, path: Path, payload: Any) -> None:
        integrity.write_artifact(path, payload, schema=hashing.SCHEMA_VERSION)
        if _obs.enabled:
            _metrics.counter(
                "exec.cache_stores", "mission-cache artifacts written"
            ).inc(stage=stage)
