"""Durable registry: dedup, admission, leases, recovery, dead letters.

Timestamps are caller-supplied throughout, so the state machine is
exercised on a synthetic clock — no sleeps, no racing.
"""

import os
import socket

import pytest

from repro.service import (
    MissionRegistry,
    QueueFullError,
    RegistryUnavailable,
    StateTransitionError,
    UnknownJobError,
)
from repro.service.registry import process_owner

NO_BACKOFF = lambda attempts: 0.0  # noqa: E731


@pytest.fixture()
def registry(tmp_path):
    reg = MissionRegistry.open(tmp_path / "registry.db", create=True)
    yield reg
    reg.close()


def submit(registry, i: int = 0, *, now: float = 100.0, **kwargs):
    record, deduped = registry.submit(
        fingerprint=f"f{i:03d}" + "0" * 28, config={"i": i}, now=now, **kwargs)
    return record, deduped


def lease(registry, *, now: float = 110.0, lease_s: float = 30.0,
          owner: str = "w", pid: int | None = None):
    return registry.lease_next(owner=owner, pid=pid or os.getpid(),
                               now=now, lease_s=lease_s)


class TestAdmission:
    def test_submit_and_get(self, registry):
        record, deduped = submit(registry)
        assert not deduped
        assert record.state == "queued"
        assert record.job_id == "j" + record.fingerprint[:12]
        assert registry.get(record.job_id).fingerprint == record.fingerprint
        assert registry.get(record.fingerprint).job_id == record.job_id

    def test_duplicate_fingerprint_dedupes(self, registry):
        first, _ = submit(registry)
        again, deduped = submit(registry)
        assert deduped
        assert again.job_id == first.job_id
        assert registry.get(first.job_id).submit_count == 2
        assert len(registry.jobs()) == 1

    def test_done_job_still_dedupes(self, registry):
        record, _ = submit(registry)
        job = lease(registry)
        assert registry.complete(job.job_id, job.lease_token, result_path="r",
                                 result_digest="d", now=120.0)
        _, deduped = submit(registry)
        assert deduped
        assert registry.get(record.job_id).state == "done"

    def test_queue_full_rejected_with_retry_hint(self, registry):
        submit(registry, 0, queue_depth=2)
        submit(registry, 1, queue_depth=2)
        with pytest.raises(QueueFullError) as err:
            submit(registry, 2, queue_depth=2,
                   retry_after=lambda depth: depth * 2.5)
        assert err.value.depth == 2
        assert err.value.retry_after_s == 5.0
        assert "retry after" in str(err.value)

    def test_terminal_jobs_free_backlog_slots(self, registry):
        submit(registry, 0, queue_depth=1)
        job = lease(registry)
        registry.complete(job.job_id, job.lease_token, result_path="r",
                          result_digest="d", now=120.0)
        record, deduped = submit(registry, 1, queue_depth=1)
        assert not deduped and record.state == "queued"

    def test_prefix_lookup(self, registry):
        record, _ = submit(registry)
        assert registry.get(record.job_id[:5]).job_id == record.job_id
        with pytest.raises(UnknownJobError):
            registry.get("nope")

    def test_ambiguous_prefix_is_unknown(self, registry):
        submit(registry, 0)
        submit(registry, 1)
        with pytest.raises(UnknownJobError):
            registry.get("j")  # matches both


class TestLeaseProtocol:
    def test_lease_charges_attempt_and_sets_deadline(self, registry):
        submit(registry)
        job = lease(registry, now=110.0, lease_s=30.0)
        assert job.state == "leased"
        assert job.attempts == 1
        assert job.lease_deadline == 140.0
        assert job.lease_token

    def test_empty_queue_leases_nothing(self, registry):
        assert lease(registry) is None

    def test_oldest_submission_first(self, registry):
        submit(registry, 0, now=100.0)
        submit(registry, 1, now=50.0)
        assert lease(registry).config == {"i": 1}

    def test_backoff_defers_leasing(self, registry):
        submit(registry)
        job = lease(registry, now=110.0)
        registry.fail(job.job_id, job.lease_token, error="boom", now=120.0,
                      backoff_s=100.0)
        assert lease(registry, now=150.0) is None      # still backing off
        assert lease(registry, now=230.0) is not None  # due again

    def test_heartbeat_extends_only_live_lease(self, registry):
        submit(registry)
        job = lease(registry, now=110.0, lease_s=30.0)
        assert registry.heartbeat(job.job_id, job.lease_token,
                                  now=130.0, lease_s=30.0)
        assert registry.get(job.job_id).lease_deadline == 160.0
        assert not registry.heartbeat(job.job_id, "bogus-token",
                                      now=130.0, lease_s=30.0)

    def test_complete_is_token_guarded(self, registry):
        submit(registry)
        job = lease(registry)
        assert not registry.complete(job.job_id, "stale-token",
                                     result_path="r", result_digest="d",
                                     now=120.0)
        assert registry.complete(job.job_id, job.lease_token, result_path="r",
                                 result_digest="d", now=120.0)
        done = registry.get(job.job_id)
        assert done.state == "done" and done.completions == 1
        # A second acknowledgement from anyone is rejected: exactly once.
        assert not registry.complete(job.job_id, job.lease_token,
                                     result_path="r2", result_digest="d2",
                                     now=121.0)
        assert registry.get(job.job_id).completions == 1

    def test_mark_running_transition(self, registry):
        submit(registry)
        job = lease(registry)
        assert registry.mark_running(job.job_id, job.lease_token, now=115.0)
        assert registry.get(job.job_id).state == "running"
        assert not registry.mark_running(job.job_id, job.lease_token, now=116.0)


class TestRetriesAndDeadLetters:
    def test_fail_requeues_until_budget_then_dead_letters(self, registry):
        submit(registry, max_attempts=2)
        job = lease(registry, now=110.0)
        assert registry.fail(job.job_id, job.lease_token, error="first",
                             now=120.0, backoff_s=0.0) == "failed"
        job = lease(registry, now=130.0)
        assert job.attempts == 2
        assert registry.fail(job.job_id, job.lease_token, error="second",
                             now=140.0, backoff_s=0.0) == "dead"
        dead = registry.get(job.job_id)
        assert dead.state == "dead" and dead.terminal
        letters = registry.dead_letters()
        assert len(letters) == 1
        assert letters[0]["error"] == "second"
        assert letters[0]["attempts"] == 2
        # Dead jobs are not leasable.
        assert lease(registry, now=150.0) is None

    def test_fail_with_stale_token_is_rejected(self, registry):
        submit(registry)
        job = lease(registry)
        assert registry.fail(job.job_id, "stale", error="x", now=120.0,
                             backoff_s=0.0) is None
        assert registry.get(job.job_id).state == "leased"

    def test_transitions_are_audited(self, registry):
        submit(registry, now=100.0)
        job = lease(registry, now=110.0)
        registry.complete(job.job_id, job.lease_token, result_path="r",
                          result_digest="d", now=120.0)
        dsts = [dst for (_, _, dst, _) in registry.transitions(job.job_id)]
        assert dsts == ["queued", "leased", "done"]

    @pytest.mark.parametrize("run_first", [False, True],
                             ids=["lease-complete", "lease-run-complete"])
    def test_history_names_only_states_the_job_entered(self, registry,
                                                       run_first):
        submit(registry, now=100.0)
        job = lease(registry, now=110.0)
        if run_first:
            registry.mark_running(job.job_id, job.lease_token, now=115.0)
        assert registry.complete(job.job_id, job.lease_token,
                                 result_path="r", result_digest="d", now=120.0)
        ran = [(115.0, "leased", "running", "")] if run_first else []
        assert registry.transitions(job.job_id) == [
            (100.0, "-", "queued", "submitted"),
            (110.0, "queued", "leased", "w"),
            *ran,
            (120.0, "running" if run_first else "leased", "done", ""),
        ]

    def test_undeclared_edge_is_refused(self, registry, monkeypatch):
        """Every logged edge is checked against ``VALID_TRANSITIONS``: one
        the table does not list rolls its transition back."""
        import repro.service.registry as registry_mod

        monkeypatch.setitem(registry_mod.VALID_TRANSITIONS, "leased",
                            ("running",))
        submit(registry)
        job = lease(registry)
        with pytest.raises(StateTransitionError, match="'leased' -> 'done'"):
            registry.complete(job.job_id, job.lease_token, result_path="r",
                              result_digest="d", now=120.0)
        assert registry.get(job.job_id).state == "leased"


class TestRecovery:
    def test_expired_lease_requeued(self, registry):
        submit(registry)
        job = lease(registry, now=110.0, lease_s=30.0)
        assert registry.recover_expired(now=139.0, backoff=NO_BACKOFF) == []
        assert registry.recover_expired(now=141.0,
                                        backoff=NO_BACKOFF) == [job.job_id]
        requeued = registry.get(job.job_id)
        assert requeued.state == "queued"
        assert requeued.attempts == 1  # the crashed attempt stays charged

    def test_stale_holder_cannot_ack_after_recovery(self, registry):
        """The split-brain case: old worker finishes after its lease expired."""
        submit(registry)
        stale = lease(registry, now=110.0, lease_s=30.0)
        registry.recover_expired(now=141.0, backoff=NO_BACKOFF)
        fresh = lease(registry, now=142.0)
        assert fresh.lease_token != stale.lease_token
        assert not registry.complete(stale.job_id, stale.lease_token,
                                     result_path="r", result_digest="d",
                                     now=143.0)
        assert registry.complete(fresh.job_id, fresh.lease_token,
                                 result_path="r", result_digest="d", now=144.0)
        assert registry.get(fresh.job_id).completions == 1

    def test_expired_lease_past_budget_dead_letters(self, registry):
        submit(registry, max_attempts=1)
        job = lease(registry, now=110.0, lease_s=30.0)
        registry.recover_expired(now=141.0, backoff=NO_BACKOFF)
        assert registry.get(job.job_id).state == "dead"
        assert registry.dead_letters()[0]["error"].startswith("lease-expired")

    def test_orphans_of_dead_process_requeued(self, registry):
        """kill -9 recovery: leases of a dead pid requeue immediately."""
        submit(registry, 0)
        submit(registry, 1)
        dead_pid = 2 ** 22 + 12345  # beyond any real pid on this box
        orphan = lease(registry, now=110.0, lease_s=3600.0, pid=dead_pid)
        mine = lease(registry, now=110.0, lease_s=3600.0)
        recovered = registry.recover_orphans(now=120.0, backoff=NO_BACKOFF)
        assert recovered == [orphan.job_id]
        assert registry.get(orphan.job_id).state == "queued"
        assert registry.get(mine.job_id).state == "leased"

    def test_orphans_of_predecessor_under_own_pid_requeued(self, registry):
        """A restart that got its predecessor's pid back tells the
        predecessor's leases from its own by the owner's process token."""
        submit(registry, 0)
        submit(registry, 1)
        orphan = lease(registry,
                       owner=f"{socket.gethostname()}:{os.getpid()}:predecessor")
        mine = lease(registry, owner=process_owner())
        recovered = registry.recover_orphans(now=120.0, backoff=NO_BACKOFF)
        assert recovered == [orphan.job_id]
        assert registry.get(mine.job_id).state == "leased"

    def test_reopen_sees_everything(self, registry, tmp_path):
        """Durability: a fresh connection sees the committed state."""
        record, _ = submit(registry)
        job = lease(registry)
        registry.complete(job.job_id, job.lease_token, result_path="r",
                          result_digest="d", now=120.0)
        with MissionRegistry.open(tmp_path / "registry.db") as reopened:
            assert reopened.get(record.job_id).state == "done"
            assert reopened.counts()["done"] == 1


class TestQueriesAndProbes:
    def test_counts_zero_filled(self, registry):
        assert registry.counts() == {
            "queued": 0, "failed": 0, "leased": 0, "running": 0,
            "done": 0, "dead": 0,
        }
        submit(registry)
        assert registry.counts()["queued"] == 1
        assert registry.active_count() == 1

    def test_probe_round_trip(self, registry):
        assert registry.probe() is None
        registry.set_probe(owner="host:1", pid=os.getpid(), state="ready",
                           now=100.0)
        probe = registry.probe()
        assert probe["live"] and probe["ready"]
        registry.set_probe(owner="host:1", pid=2 ** 22 + 12345, state="ready",
                           now=101.0)
        probe = registry.probe()
        assert not probe["live"] and not probe["ready"]

    def test_mean_job_s_measures_done_jobs(self, registry):
        assert registry.mean_job_s() is None
        for i, (leased_at, done_at) in enumerate([(110.0, 113.0),
                                                  (120.0, 125.0)]):
            submit(registry, i)
            job = lease(registry, now=leased_at)
            registry.complete(job.job_id, job.lease_token, result_path="r",
                              result_digest="d", now=done_at)
        assert registry.mean_job_s() == 4.0

    def test_meta_round_trip(self, registry):
        registry.set_meta(queue_depth=64, nominal_job_s=2.5)
        assert registry.get_meta("queue_depth") == 64
        assert registry.get_meta("nominal_job_s") == 2.5
        assert registry.get_meta("missing", "fallback") == "fallback"


class TestUnavailable:
    def test_missing_registry(self, tmp_path):
        with pytest.raises(RegistryUnavailable, match="no service registry"):
            MissionRegistry.open(tmp_path / "registry.db")

    def test_not_a_registry(self, tmp_path):
        path = tmp_path / "registry.db"
        path.write_bytes(b"")  # empty file: valid sqlite, no jobs table
        with pytest.raises(RegistryUnavailable, match="not a fleet-service"):
            MissionRegistry.open(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "registry.db"
        path.write_bytes(b"this is not sqlite at all" * 100)
        with pytest.raises(RegistryUnavailable):
            MissionRegistry.open(path)

    def test_locked_registry_times_out(self, tmp_path):
        import sqlite3

        path = tmp_path / "registry.db"
        MissionRegistry.open(path, create=True).close()
        blocker = sqlite3.connect(path, isolation_level=None)
        blocker.execute("BEGIN EXCLUSIVE")
        try:
            reg = MissionRegistry.open(path, busy_timeout_s=0.1)
            with pytest.raises(RegistryUnavailable, match="unavailable"):
                reg.submit(fingerprint="f" * 32, config={}, now=0.0)
            reg.close()
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()


class TestCreation:
    def test_a_client_never_sees_a_half_made_registry(self, tmp_path, monkeypatch):
        """A client that opens the path after each statement the creator
        runs finds no registry or a whole one, and the creator succeeds.
        When the creator built the registry in place, the client found
        an empty file with no jobs table, or hit ``database is locked``."""
        import sqlite3

        path = tmp_path / "registry.db"
        real_connect = sqlite3.connect
        seen: list[str] = []
        probing = False

        def probe() -> None:
            nonlocal probing
            probing = True
            try:
                MissionRegistry.open(path).close()
                seen.append("whole")
            except RegistryUnavailable as exc:
                seen.append(str(exc))
            finally:
                probing = False

        class Spied:
            """A creator's connection: probes the path after each statement."""

            def __init__(self, conn):
                self._conn = conn

            def __getattr__(self, name):
                return getattr(self._conn, name)

            def execute(self, *args):
                cursor = self._conn.execute(*args)
                probe()
                return cursor

            def executescript(self, script):
                cursor = self._conn.executescript(script)
                probe()
                return cursor

        def connect(*args, **kwargs):
            conn = real_connect(*args, **kwargs)
            return conn if probing else Spied(conn)

        monkeypatch.setattr(sqlite3, "connect", connect)
        registry = MissionRegistry.open(path, create=True)
        monkeypatch.undo()
        registry.close()
        half_made = [s for s in seen if s != "whole" and "no service registry" not in s]
        assert not half_made, half_made
        assert seen and seen[-1] == "whole"
