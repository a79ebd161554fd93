"""The day store's writer lease + resume: crash recovery must be bit-identical."""

import pytest

from repro.core.config import ExecutionConfig, MissionConfig
from repro.exec.cache import MissionCache
from repro.exec.checkpoint import LOCK_NAME, CheckpointJournal, JournalBusyError
from repro.experiments.mission import run_mission

from tests.exec.test_executor import assert_bit_identical


@pytest.fixture(scope="module")
def cfg():
    return MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)


@pytest.fixture(scope="module")
def baseline(cfg):
    """Uninterrupted serial run — the bit-identity reference."""
    return run_mission(cfg)


def stored(tmp_path) -> ExecutionConfig:
    return ExecutionConfig(cache_dir=str(tmp_path))


def stored_days(cache: MissionCache, cfg) -> list[int]:
    """Days with a record in the store (unverified)."""
    return sorted(int(p.stem[3:]) for p in cache.day_dir(cfg).glob("day*.pkl"))


def lock_path(tmp_path, cfg):
    """The fingerprint's lease marker, its directory created."""
    day_dir = MissionCache(tmp_path).day_dir(cfg)
    day_dir.mkdir(parents=True, exist_ok=True)
    return day_dir / LOCK_NAME


class TestJournalUnit:
    def test_record_load_round_trip(self, cfg, tmp_path, baseline):
        result = run_mission(cfg, execution=stored(tmp_path))
        assert result.cache_stats["checkpoint"]["recorded"] == 2
        cache = MissionCache(tmp_path)
        assert stored_days(cache, cfg) == [2, 3]
        with CheckpointJournal(cache, cfg) as journal:
            outcome = journal.load_completed([2])[2]
        assert outcome.day == 2
        assert not hasattr(outcome, "telemetry")  # worker telemetry is never stored
        assert set(outcome.summaries) == {
            b for (b, d) in baseline.sensing.summaries if d == 2
        }

    def test_journal_keyed_by_sensing_fingerprint(self, cfg, tmp_path):
        import dataclasses

        run_mission(cfg, execution=stored(tmp_path))
        other_cfg = dataclasses.replace(
            cfg, wear_compliance_start=0.4, wear_compliance_end=0.4
        )
        cache = MissionCache(tmp_path)
        # A changed config finds no stored days — stale days can never
        # leak into the wrong mission — and takes a lease of its own.
        assert stored_days(cache, other_cfg) == []
        assert cache.day_dir(other_cfg) != cache.day_dir(cfg)
        with CheckpointJournal(cache, cfg), CheckpointJournal(cache, other_cfg):
            pass

    def test_missing_day_is_none(self, cfg, tmp_path):
        cache = MissionCache(tmp_path)
        assert cache.load_day(cfg, 2) is None
        with CheckpointJournal(cache, cfg) as journal:
            assert journal.load_completed([2, 3]) == {}
            assert journal.stats() == {"recorded": 0, "resumed_days": []}

    def test_corrupt_record_quarantined_not_served(self, cfg, tmp_path):
        run_mission(cfg, execution=stored(tmp_path))
        cache = MissionCache(tmp_path)
        path = cache.day_path(cfg, 2)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x10
        path.write_bytes(bytes(blob))
        with CheckpointJournal(cache, cfg) as journal:
            restored = journal.load_completed([2, 3])
        # Day 3 is untouched and still loads.
        assert sorted(restored) == [3]
        assert cache.quarantined["day"] == 1
        assert (tmp_path / "quarantine" / path.name).exists()


class TestResume:
    def test_full_resume_is_bit_identical(self, cfg, tmp_path, baseline):
        run_mission(cfg, execution=stored(tmp_path))
        resumed = run_mission(cfg, execution=stored(tmp_path))
        assert_bit_identical(baseline, resumed)
        checkpoint = resumed.cache_stats["checkpoint"]
        assert checkpoint["resumed_days"] == [2, 3]
        # Nothing recomputed, so nothing stored again.
        assert checkpoint["recorded"] == 0

    def test_partial_resume_recomputes_the_rest(self, cfg, tmp_path, baseline):
        """The crash scenario: only day 2 made it to the store."""
        run_mission(cfg, execution=stored(tmp_path))
        MissionCache(tmp_path).day_path(cfg, 3).unlink()
        resumed = run_mission(cfg, execution=stored(tmp_path))
        assert_bit_identical(baseline, resumed)
        checkpoint = resumed.cache_stats["checkpoint"]
        assert checkpoint["resumed_days"] == [2]
        assert checkpoint["recorded"] == 1  # day 3 recomputed and stored
        assert stored_days(MissionCache(tmp_path), cfg) == [2, 3]

    def test_corrupt_checkpoint_recomputed_bit_identical(self, cfg, tmp_path,
                                                         baseline):
        """A crash mid-write leaves a bad record: quarantine + recompute."""
        run_mission(cfg, execution=stored(tmp_path))
        path = MissionCache(tmp_path).day_path(cfg, 2)
        path.write_bytes(path.read_bytes()[:-7])
        resumed = run_mission(cfg, execution=stored(tmp_path))
        assert_bit_identical(baseline, resumed)
        assert resumed.cache_stats["checkpoint"]["resumed_days"] == [3]
        assert resumed.cache_stats["quarantined"]["day"] == 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_resume_with_parallel_workers(self, cfg, tmp_path, baseline):
        run_mission(cfg, execution=stored(tmp_path))
        MissionCache(tmp_path).day_path(cfg, 3).unlink()
        resumed = run_mission(
            cfg, execution=ExecutionConfig(n_workers=2, cache_dir=str(tmp_path)),
        )
        assert_bit_identical(baseline, resumed)

    def test_custom_stack_disables_journal(self, cfg, tmp_path, baseline):
        from repro.badges.pipeline import SensingModels

        models = SensingModels.default(cfg, baseline.truth.plan)
        result = run_mission(cfg, models=models, execution=stored(tmp_path))
        # Only the truth is stored; custom-stack days never are, and no
        # lease is taken for them.
        assert "checkpoint" not in result.cache_stats
        assert not MissionCache(tmp_path).day_dir(cfg).exists()


class TestJournalLease:
    """The O_EXCL writer lease: one live writer per fingerprint."""

    def test_second_resumer_gets_busy_error(self, cfg, tmp_path):
        holder = CheckpointJournal(MissionCache(tmp_path), cfg, owner="one")
        try:
            with pytest.raises(JournalBusyError, match="held by"):
                CheckpointJournal(MissionCache(tmp_path), cfg, owner="two")
        finally:
            holder.close()

    def test_close_releases_the_lease(self, cfg, tmp_path):
        holder = CheckpointJournal(MissionCache(tmp_path), cfg)
        holder.close()
        second = CheckpointJournal(MissionCache(tmp_path), cfg)
        second.close()
        second.close()  # idempotent

    def test_context_manager_releases(self, cfg, tmp_path):
        with CheckpointJournal(MissionCache(tmp_path), cfg):
            assert lock_path(tmp_path, cfg).exists()
        assert not lock_path(tmp_path, cfg).exists()

    def test_stale_lock_of_dead_holder_is_broken(self, cfg, tmp_path):
        """A kill -9'd holder leaves its marker; the pid check breaks it."""
        import json

        lock_path(tmp_path, cfg).write_text(
            json.dumps({"pid": 2 ** 22 + 12345, "owner": "ghost",
                        "acquired_at": 0.0}))
        taker = CheckpointJournal(MissionCache(tmp_path), cfg)
        taker.close()

    def test_unreadable_lock_is_treated_as_stale(self, cfg, tmp_path):
        lock_path(tmp_path, cfg).write_bytes(b"\x00 crash mid-write")
        taker = CheckpointJournal(MissionCache(tmp_path), cfg)
        taker.close()

    def test_live_holder_is_never_stolen(self, cfg, tmp_path):
        """Our own pid in the marker means the holder is alive."""
        import json
        import os

        lock_path(tmp_path, cfg).write_text(
            json.dumps({"pid": os.getpid(), "owner": "twin",
                        "acquired_at": 0.0}))
        with pytest.raises(JournalBusyError):
            CheckpointJournal(MissionCache(tmp_path), cfg)

    def test_own_pid_with_another_token_is_broken(self, cfg, tmp_path):
        """A restart that got its killed predecessor's pid back (PID 1 in
        a container) sees that pid alive; the process token tells them
        apart, so the predecessor's marker is stale."""
        import json
        import os

        lock_path(tmp_path, cfg).write_text(
            json.dumps({"pid": os.getpid(), "token": "predecessor",
                        "owner": "ghost", "acquired_at": 0.0}))
        taker = CheckpointJournal(MissionCache(tmp_path), cfg)
        taker.close()

    def test_run_mission_releases_on_exit(self, cfg, tmp_path):
        run_mission(cfg, execution=stored(tmp_path))
        assert not lock_path(tmp_path, cfg).exists()
        # The fingerprint is immediately resumable by the next process.
        again = CheckpointJournal(MissionCache(tmp_path), cfg)
        again.close()

    def test_concurrent_run_mission_raises_busy(self, cfg, tmp_path):
        holder = CheckpointJournal(MissionCache(tmp_path), cfg, owner="rival")
        try:
            with pytest.raises(JournalBusyError):
                run_mission(cfg, execution=stored(tmp_path))
        finally:
            holder.close()

    def test_busy_error_is_exported(self):
        from repro.core.errors import DataError
        from repro.exec import JournalBusyError

        assert issubclass(JournalBusyError, DataError)


class TestCli:
    def test_run_resume_mentions_restored_days(self, cfg, tmp_path, capsys):
        """Rerunning the same command resumes; ``--checkpoint`` is an
        alias of ``--cache``."""
        from repro.__main__ import main

        ckpt = str(tmp_path / "ckpt")
        base = ["run", "--days", "3", "--seed", "5", "--no-events"]
        assert main(base + ["--checkpoint", ckpt]) == 0
        assert "resumed" not in capsys.readouterr().out
        assert main(base + ["--checkpoint", ckpt]) == 0
        assert "resumed 2 day(s) from checkpoint: 2, 3" in capsys.readouterr().out
        assert main(base + ["--cache", ckpt]) == 0
        assert "resumed 2 day(s) from checkpoint: 2, 3" in capsys.readouterr().out
