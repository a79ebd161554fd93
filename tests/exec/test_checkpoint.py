"""Checkpoint journal + resume: crash recovery must be bit-identical."""

import pytest

from repro.core.config import ExecutionConfig, MissionConfig
from repro.core.errors import ConfigError
from repro.exec.checkpoint import CheckpointJournal
from repro.experiments.mission import run_mission

from tests.exec.test_executor import assert_bit_identical


@pytest.fixture(scope="module")
def cfg():
    return MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)


@pytest.fixture(scope="module")
def baseline(cfg):
    """Uninterrupted serial run — the bit-identity reference."""
    return run_mission(cfg)


class TestJournalUnit:
    def test_record_load_round_trip(self, cfg, tmp_path, baseline):
        journal = CheckpointJournal(tmp_path, cfg)
        journaled = run_mission(
            cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path))
        )
        assert journal.journaled_days() == [2, 3]
        outcome = journal.load_day(2)
        assert outcome is not None
        assert outcome.day == 2
        assert outcome.telemetry is None
        assert set(outcome.summaries) == {
            b for (b, d) in baseline.sensing.summaries if d == 2
        }
        assert journaled.cache_stats["checkpoint"]["recorded"] == 2

    def test_journal_keyed_by_sensing_fingerprint(self, cfg, tmp_path):
        import dataclasses

        run_mission(cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path)))
        other_cfg = dataclasses.replace(
            cfg, wear_compliance_start=0.4, wear_compliance_end=0.4
        )
        other = CheckpointJournal(tmp_path, other_cfg)
        # A changed config finds an empty journal — stale checkpoints
        # can never leak into the wrong mission.
        assert other.journaled_days() == []
        assert other.dir != CheckpointJournal(tmp_path, cfg).dir

    def test_missing_day_is_none(self, cfg, tmp_path):
        journal = CheckpointJournal(tmp_path, cfg)
        assert journal.load_day(2) is None
        assert journal.load_completed([2, 3]) == {}
        assert journal.stats() == {
            "recorded": 0, "resumed_days": [], "quarantined": 0,
        }

    def test_corrupt_record_quarantined_not_served(self, cfg, tmp_path):
        run_mission(cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path)))
        journal = CheckpointJournal(tmp_path, cfg)
        path = journal.day_path(2)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x10
        path.write_bytes(bytes(blob))
        assert journal.load_day(2) is None
        assert journal.quarantined == 1
        assert (tmp_path / "quarantine" / path.name).exists()
        # Day 3 is untouched and still loads.
        restored = journal.load_completed([2, 3])
        assert sorted(restored) == [3]


class TestResume:
    def test_full_resume_is_bit_identical(self, cfg, tmp_path, baseline):
        execution = ExecutionConfig(checkpoint_dir=str(tmp_path))
        run_mission(cfg, execution=execution)
        resumed = run_mission(
            cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path),
                                           resume=True)
        )
        assert_bit_identical(baseline, resumed)
        checkpoint = resumed.cache_stats["checkpoint"]
        assert checkpoint["resumed_days"] == [2, 3]
        # Nothing recomputed, so nothing re-journaled.
        assert checkpoint["recorded"] == 0

    def test_partial_resume_recomputes_the_rest(self, cfg, tmp_path, baseline):
        """The crash scenario: only day 2 made it to the journal."""
        run_mission(cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path)))
        journal = CheckpointJournal(tmp_path, cfg)
        journal.day_path(3).unlink()
        resumed = run_mission(
            cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path),
                                           resume=True)
        )
        assert_bit_identical(baseline, resumed)
        checkpoint = resumed.cache_stats["checkpoint"]
        assert checkpoint["resumed_days"] == [2]
        assert checkpoint["recorded"] == 1  # day 3 recomputed and journaled
        assert CheckpointJournal(tmp_path, cfg).journaled_days() == [2, 3]

    def test_corrupt_checkpoint_recomputed_bit_identical(self, cfg, tmp_path,
                                                         baseline):
        """A crash mid-write leaves a bad record: quarantine + recompute."""
        run_mission(cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path)))
        path = CheckpointJournal(tmp_path, cfg).day_path(2)
        path.write_bytes(path.read_bytes()[:-7])
        resumed = run_mission(
            cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path),
                                           resume=True)
        )
        assert_bit_identical(baseline, resumed)
        checkpoint = resumed.cache_stats["checkpoint"]
        assert checkpoint["resumed_days"] == [3]
        assert checkpoint["quarantined"] == 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_resume_with_parallel_workers(self, cfg, tmp_path, baseline):
        run_mission(cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path)))
        CheckpointJournal(tmp_path, cfg).day_path(3).unlink()
        resumed = run_mission(
            cfg, execution=ExecutionConfig(n_workers=2, resume=True,
                                           checkpoint_dir=str(tmp_path)),
        )
        assert_bit_identical(baseline, resumed)

    def test_resume_without_resume_flag_recomputes(self, cfg, tmp_path):
        """checkpoint_dir alone journals but never reads old state."""
        run_mission(cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path)))
        again = run_mission(
            cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path))
        )
        checkpoint = again.cache_stats["checkpoint"]
        assert checkpoint["resumed_days"] == []
        assert checkpoint["recorded"] == 2

    def test_custom_stack_disables_journal(self, cfg, tmp_path, baseline):
        from repro.badges.pipeline import SensingModels

        models = SensingModels.default(cfg, baseline.truth.plan)
        result = run_mission(
            cfg, models=models,
            execution=ExecutionConfig(checkpoint_dir=str(tmp_path)),
        )
        assert result.cache_stats is None
        assert CheckpointJournal(tmp_path, cfg).journaled_days() == []


class TestJournalLease:
    """The O_EXCL exclusive lease: one live resumer per fingerprint."""

    def test_second_resumer_gets_busy_error(self, cfg, tmp_path):
        from repro.exec.checkpoint import JournalBusyError

        holder = CheckpointJournal(tmp_path, cfg, exclusive=True, owner="one")
        try:
            with pytest.raises(JournalBusyError, match="held by"):
                CheckpointJournal(tmp_path, cfg, exclusive=True, owner="two")
        finally:
            holder.close()

    def test_close_releases_the_lease(self, cfg, tmp_path):
        holder = CheckpointJournal(tmp_path, cfg, exclusive=True)
        holder.close()
        second = CheckpointJournal(tmp_path, cfg, exclusive=True)
        second.close()
        second.close()  # idempotent

    def test_context_manager_releases(self, cfg, tmp_path):
        with CheckpointJournal(tmp_path, cfg, exclusive=True) as journal:
            assert (journal.dir / "journal.lock").exists()
        assert not (journal.dir / "journal.lock").exists()

    def test_stale_lock_of_dead_holder_is_broken(self, cfg, tmp_path):
        """A kill -9'd holder leaves its marker; the pid check breaks it."""
        import json

        journal = CheckpointJournal(tmp_path, cfg)
        (journal.dir / "journal.lock").write_text(
            json.dumps({"pid": 2 ** 22 + 12345, "owner": "ghost",
                        "acquired_at": 0.0}))
        taker = CheckpointJournal(tmp_path, cfg, exclusive=True)
        taker.close()

    def test_unreadable_lock_is_treated_as_stale(self, cfg, tmp_path):
        journal = CheckpointJournal(tmp_path, cfg)
        (journal.dir / "journal.lock").write_bytes(b"\x00 crash mid-write")
        taker = CheckpointJournal(tmp_path, cfg, exclusive=True)
        taker.close()

    def test_live_holder_is_never_stolen(self, cfg, tmp_path):
        """Our own pid in the marker means the holder is alive."""
        import json

        from repro.exec.checkpoint import JournalBusyError

        journal = CheckpointJournal(tmp_path, cfg)
        (journal.dir / "journal.lock").write_text(
            json.dumps({"pid": __import__("os").getpid(), "owner": "twin",
                        "acquired_at": 0.0}))
        with pytest.raises(JournalBusyError):
            CheckpointJournal(tmp_path, cfg, exclusive=True)

    def test_own_pid_with_another_token_is_broken(self, cfg, tmp_path):
        """A restart that got its killed predecessor's pid back (PID 1 in
        a container) sees that pid alive; the process token tells them
        apart, so the predecessor's marker is stale."""
        import json
        import os

        journal = CheckpointJournal(tmp_path, cfg)
        (journal.dir / "journal.lock").write_text(
            json.dumps({"pid": os.getpid(), "token": "predecessor",
                        "owner": "ghost", "acquired_at": 0.0}))
        taker = CheckpointJournal(tmp_path, cfg, exclusive=True)
        taker.close()

    def test_non_exclusive_journal_ignores_the_lease(self, cfg, tmp_path):
        """Read-side journals (and legacy callers) never contend."""
        holder = CheckpointJournal(tmp_path, cfg, exclusive=True)
        try:
            reader = CheckpointJournal(tmp_path, cfg)
            assert reader.journaled_days() == []
        finally:
            holder.close()

    def test_run_mission_releases_on_exit(self, cfg, tmp_path):
        run_mission(cfg, execution=ExecutionConfig(checkpoint_dir=str(tmp_path)))
        journal = CheckpointJournal(tmp_path, cfg)
        assert not (journal.dir / "journal.lock").exists()
        # The fingerprint is immediately resumable by the next process.
        again = CheckpointJournal(tmp_path, cfg, exclusive=True)
        again.close()

    def test_concurrent_run_mission_raises_busy(self, cfg, tmp_path):
        from repro.exec.checkpoint import JournalBusyError

        holder = CheckpointJournal(tmp_path, cfg, exclusive=True, owner="rival")
        try:
            with pytest.raises(JournalBusyError):
                run_mission(cfg, execution=ExecutionConfig(
                    checkpoint_dir=str(tmp_path)))
        finally:
            holder.close()

    def test_busy_error_is_exported(self):
        from repro.core.errors import DataError
        from repro.exec import JournalBusyError

        assert issubclass(JournalBusyError, DataError)


class TestConfig:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigError):
            ExecutionConfig(resume=True)

    def test_empty_checkpoint_dir_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionConfig(checkpoint_dir="")

    def test_checkpoint_active(self, tmp_path):
        assert ExecutionConfig(checkpoint_dir=str(tmp_path)).checkpoint_active
        assert not ExecutionConfig().checkpoint_active


class TestCli:
    def test_run_resume_mentions_restored_days(self, cfg, tmp_path, capsys):
        from repro.__main__ import main

        ckpt = str(tmp_path / "ckpt")
        base = ["run", "--days", "3", "--seed", "5", "--no-events",
                "--checkpoint", ckpt]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed 2 day(s) from checkpoint: 2, 3" in out
