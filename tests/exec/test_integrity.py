"""Artifact envelope integrity: checksums, atomicity, quarantine, sweep."""

import os
import pickle

import pytest

from repro.exec import integrity
from repro.exec.integrity import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactSchemaMismatch,
    ArtifactUnreadable,
    checksum,
    quarantine,
    read_artifact,
    sweep_stale_tmp,
    write_artifact,
)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "a.pkl"
        payload = {"x": [1, 2, 3], "y": "hello"}
        digest = write_artifact(path, payload, schema=1)
        assert read_artifact(path, schema=1) == payload
        # Returned digest matches the payload's serialized bytes.
        _, _, stored, payload_bytes = pickle.loads(path.read_bytes())
        assert stored == digest == checksum(payload_bytes)

    def test_write_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "a.pkl"
        write_artifact(path, 42, schema=1)
        assert read_artifact(path, schema=1) == 42

    def test_no_tmp_left_behind(self, tmp_path):
        write_artifact(tmp_path / "a.pkl", "payload", schema=1)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_artifact(tmp_path / "absent.pkl", schema=1)


class TestVerification:
    def test_payload_bit_flip_is_corrupt(self, tmp_path):
        path = tmp_path / "a.pkl"
        write_artifact(path, list(range(100)), schema=1)
        blob = bytearray(path.read_bytes())
        # Flip a bit near the end, inside the payload bytes.
        blob[-10] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactCorrupt):
            read_artifact(path, schema=1)

    def test_truncated_file_is_unreadable(self, tmp_path):
        path = tmp_path / "a.pkl"
        write_artifact(path, list(range(100)), schema=1)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactError):
            read_artifact(path, schema=1)

    def test_garbage_is_unreadable(self, tmp_path):
        path = tmp_path / "a.pkl"
        path.write_bytes(b"\x00\x01 not a pickle at all")
        with pytest.raises(ArtifactUnreadable):
            read_artifact(path, schema=1)

    def test_foreign_magic_is_unreadable(self, tmp_path):
        path = tmp_path / "a.pkl"
        path.write_bytes(pickle.dumps(("some.other.format", 1, "00", b"")))
        with pytest.raises(ArtifactUnreadable):
            read_artifact(path, schema=1)

    def test_schema_mismatch_is_unreadable(self, tmp_path):
        path = tmp_path / "a.pkl"
        write_artifact(path, "payload", schema=1)
        with pytest.raises(ArtifactSchemaMismatch):
            read_artifact(path, schema=2)

    def test_wrong_envelope_shape_is_unreadable(self, tmp_path):
        path = tmp_path / "a.pkl"
        path.write_bytes(pickle.dumps(("repro.exec.artifact", 1)))
        with pytest.raises(ArtifactUnreadable):
            read_artifact(path, schema=1)

    def test_exceptions_are_data_errors(self):
        from repro.core.errors import DataError

        assert issubclass(ArtifactCorrupt, ArtifactError)
        assert issubclass(ArtifactUnreadable, ArtifactError)
        assert issubclass(ArtifactSchemaMismatch, ArtifactUnreadable)
        assert issubclass(ArtifactError, DataError)


class TestQuarantine:
    def test_moves_file_under_quarantine(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"evidence")
        dest = quarantine(path, tmp_path, store="cache")
        assert dest == tmp_path / "quarantine" / "bad.pkl"
        assert not path.exists()
        assert dest.read_bytes() == b"evidence"

    def test_collisions_get_numeric_suffixes(self, tmp_path):
        dests = []
        for content in (b"first", b"second", b"third"):
            path = tmp_path / "bad.pkl"
            path.write_bytes(content)
            dests.append(quarantine(path, tmp_path, store="cache"))
        assert [d.name for d in dests] == ["bad.pkl", "bad.pkl.1", "bad.pkl.2"]
        # Every specimen survives.
        assert dests[0].read_bytes() == b"first"
        assert dests[2].read_bytes() == b"third"

    def test_failed_move_returns_none_and_keeps_file(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"evidence")
        # Pre-create quarantine/ as a *file* so mkdir fails.
        (tmp_path / "quarantine").write_bytes(b"")
        assert quarantine(path, tmp_path, store="cache") is None
        assert path.exists()

    def test_increments_telemetry_counter(self, tmp_path):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            path = tmp_path / "bad.pkl"
            path.write_bytes(b"x")
            quarantine(path, tmp_path, store="checkpoint")
            snap = obs.metrics.registry.snapshot()
            series = snap["exec.quarantined"]["series"]
            assert series == [{"labels": {"store": "checkpoint"}, "value": 1.0}]
        finally:
            obs.reset()


class TestSweep:
    def test_sweeps_recursively_and_counts(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.pkl.x.tmp").write_bytes(b"")
        (tmp_path / "sub" / "b.pkl.y.tmp").write_bytes(b"")
        keep = tmp_path / "real.pkl"
        keep.write_bytes(b"keep me")
        assert sweep_stale_tmp(tmp_path) == 2
        assert keep.exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_empty_root_is_fine(self, tmp_path):
        assert sweep_stale_tmp(tmp_path) == 0

    def test_live_writers_tmp_is_spared(self, tmp_path):
        """Concurrent-writer fix: a temp file whose embedded pid is a
        live process is mid-store, not an orphan — leave it alone."""
        live = tmp_path / f"a.pkl.{os.getpid()}.xyz123.tmp"
        dead = tmp_path / f"a.pkl.{2 ** 22 + 12345}.xyz123.tmp"
        legacy = tmp_path / "a.pkl.nopid.tmp"  # pre-fix name: always swept
        for path in (live, dead, legacy):
            path.write_bytes(b"partial")
        assert sweep_stale_tmp(tmp_path) == 2
        assert live.exists()
        assert not dead.exists()
        assert not legacy.exists()

    def test_write_artifact_tmp_names_carry_the_pid(self, tmp_path, monkeypatch):
        """The sweep contract depends on the writer embedding its pid."""
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(os.path.basename(src))
            return real_replace(src, dst)

        monkeypatch.setattr(integrity.os, "replace", spy)
        write_artifact(tmp_path / "a.pkl", "payload", schema=1)
        (tmp_name,) = seen
        match = integrity._TMP_PID_RE.search(tmp_name)
        assert match is not None
        assert int(match.group(1)) == os.getpid()


class TestPidAlive:
    def test_own_pid_is_alive(self):
        assert integrity.pid_alive(os.getpid())

    def test_vast_pid_is_dead(self):
        assert not integrity.pid_alive(2 ** 22 + 12345)

    def test_nonpositive_pids_are_dead(self):
        assert not integrity.pid_alive(0)
        assert not integrity.pid_alive(-1)


class TestAtomicity:
    def test_interrupted_write_leaves_old_artifact_intact(self, tmp_path, monkeypatch):
        """If the writer dies before os.replace, the previous artifact
        still verifies — and the stranded temp file is sweepable."""
        path = tmp_path / "a.pkl"
        write_artifact(path, "old", schema=1)

        real_replace = os.replace

        def boom(src, dst):
            if str(dst) == str(path):
                raise RuntimeError("killed mid-write")
            return real_replace(src, dst)

        monkeypatch.setattr(integrity.os, "replace", boom)
        with pytest.raises(RuntimeError):
            write_artifact(path, "new", schema=1)
        monkeypatch.undo()
        assert read_artifact(path, schema=1) == "old"
        # The failed write cleaned (or left a sweepable) temp file.
        sweep_stale_tmp(tmp_path)
        assert read_artifact(path, schema=1) == "old"
