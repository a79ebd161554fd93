"""FleetService loop: drain semantics, retries, recovery, probes.

``execute_job`` is monkeypatched to synthetic work so these stay
tier-1-fast; the real mission path is covered by the chaos suite.
"""

import json
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro import MissionConfig
from repro.exec.cache import MissionCache
from repro.exec.checkpoint import LOCK_NAME, CheckpointJournal
from repro.experiments.submission import config_from_dict
from repro.service import (
    FleetClient,
    FleetService,
    MissionRegistry,
    RegistryUnavailable,
    ServiceConfig,
    serve,
)
from repro.service import service as service_mod


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "fleet")


def fake_execute(results_dir):
    """A stand-in worker: records executions, returns a fake artifact."""
    calls = []

    def execute(job, *, cache_dir, results_dir):
        calls.append(job.fingerprint)
        return str(results_dir / f"{job.fingerprint}.pkl"), "digest-" + job.fingerprint[:6]

    return execute, calls


def config(root, **kwargs) -> ServiceConfig:
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("lease_s", 5.0)
    kwargs.setdefault("poll_s", 0.01)
    kwargs.setdefault("retry_backoff_s", 0.0)
    return ServiceConfig(root=root, **kwargs)


def submit_all(root, configs, **kwargs):
    with FleetClient(root, create=True) as client:
        return [client.submit(cfg, **kwargs) for cfg in configs]


class TestDrain:
    def test_drains_to_empty_exactly_once(self, root, monkeypatch):
        execute, calls = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        cfgs = [MissionConfig(days=2, seed=s) for s in range(4)]
        receipts = submit_all(root, cfgs + cfgs)  # every config twice
        assert sum(r.deduped for r in receipts) == 4
        stats = serve(config(root), drain=True)
        assert stats["completed"] == 4
        assert sorted(calls) == sorted({r.fingerprint for r in receipts})
        with FleetClient(root) as client:
            for receipt in receipts:
                record = client.status(receipt.job_id)
                assert record.state == "done"
                assert record.completions == 1

    def test_never_holds_more_leases_than_workers(self, root, monkeypatch):
        """A job is leased only by the worker slot that runs it."""
        held = []

        def execute(job, *, cache_dir, results_dir):
            time.sleep(0.02)
            with FleetClient(root) as client:
                counts = client.registry.counts()
            held.append(counts["leased"] + counts["running"])
            return str(results_dir / f"{job.fingerprint}.pkl"), "digest"

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        submit_all(root, [MissionConfig(days=2, seed=s) for s in range(8)])
        stats = serve(config(root, n_workers=2), drain=True)
        assert stats["completed"] == 8
        assert len(held) == 8
        assert max(held) <= 2

    def test_empty_registry_drains_immediately(self, root):
        stats = serve(config(root), drain=True)
        assert stats["completed"] == 0

    def test_failing_job_retries_then_dead_letters(self, root, monkeypatch):
        def explode(job, **kwargs):
            raise RuntimeError("sensor bus on fire")

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", explode)
        submit_all(root, [MissionConfig(days=2, seed=1)])
        stats = serve(config(root, max_attempts=3), drain=True)
        assert stats["dead"] == 1
        assert stats["failed"] == 2  # two requeues before the budget died
        with FleetClient(root) as client:
            overview = client.overview()
            assert overview["counts"]["dead"] == 1
            (letter,) = overview["dead_letters"]
            assert "sensor bus on fire" in letter["error"]
            assert letter["attempts"] == 3

    def test_flaky_job_eventually_completes(self, root, monkeypatch):
        attempts = {"n": 0}

        def flaky(job, *, results_dir, **kwargs):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return str(results_dir / "r.pkl"), "digest"

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", flaky)
        (receipt,) = submit_all(root, [MissionConfig(days=2, seed=1)])
        stats = serve(config(root, max_attempts=3), drain=True)
        assert stats["completed"] == 1
        assert attempts["n"] == 3
        with FleetClient(root) as client:
            record = client.status(receipt.job_id)
            assert record.state == "done"
            assert record.attempts == 3
            assert record.completions == 1

    def test_probe_reports_drained(self, root, monkeypatch):
        execute, _ = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        submit_all(root, [MissionConfig(days=2, seed=1)])
        serve(config(root), drain=True)
        with FleetClient(root) as client:
            probe = client.health()
            assert probe["state"] == "drained"
            assert probe["live"]  # this very process
            assert not probe["ready"]


class TestServeMode:
    def test_request_stop_ends_serve(self, root, monkeypatch):
        """Without drain, the loop runs until asked to stop — here from
        another thread, on a debug-mode loop, which rejects calls that
        are not thread-safe."""
        import asyncio

        execute, calls = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        submit_all(root, [MissionConfig(days=2, seed=1)])
        service = FleetService(config(root))
        box = {}

        def serve_in_debug_mode():
            box["stats"] = asyncio.run(service.run(drain=False), debug=True)

        server = threading.Thread(target=serve_in_debug_mode, daemon=True)
        server.start()
        deadline = time.monotonic() + 30.0
        with FleetClient(root) as client:
            while time.monotonic() < deadline:
                if client.overview()["counts"]["done"] == 1:
                    break
                time.sleep(0.02)
        service.request_stop()
        server.join(timeout=30.0)
        assert not server.is_alive(), "serve ignored request_stop"
        assert box["stats"]["completed"] == 1
        with FleetClient(root) as client:
            assert client.health()["state"] == "stopped"

    def test_startup_recovers_dead_owner_leases(self, root, monkeypatch):
        """Registry rows leased by a dead pid are requeued and completed."""
        execute, calls = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        (receipt,) = submit_all(root, [MissionConfig(days=2, seed=1)])
        with FleetClient(root) as client:
            orphan = client.registry.lease_next(
                owner="ghost", pid=2 ** 22 + 12345, now=time.time(),
                lease_s=3600.0)
            assert orphan is not None
        stats = serve(config(root), drain=True)
        assert stats["recovered_on_start"] == 1
        assert stats["completed"] == 1
        with FleetClient(root) as client:
            record = client.status(receipt.job_id)
            assert record.state == "done"
            assert record.completions == 1

    def test_restart_under_predecessor_pid_runs_its_jobs(self, root,
                                                           monkeypatch):
        """A restart that got its killed predecessor's pid back (PID 1 in
        a container) recovers the predecessor's lease at start-up and
        breaks its day-store lock, although that pid reads as alive."""
        def execute(job, *, cache_dir, results_dir):
            # Takes the store's lease exactly as the real execute_job does.
            cfg = config_from_dict(job.config)
            with CheckpointJournal(MissionCache(cache_dir), cfg):
                return str(results_dir / "r.pkl"), "digest"

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        cfg = MissionConfig(days=2, seed=1)
        (receipt,) = submit_all(root, [cfg])
        predecessor = f"{socket.gethostname()}:{os.getpid()}:predecessor"
        with FleetClient(root) as client:
            assert client.registry.lease_next(
                owner=predecessor, pid=os.getpid(), now=time.time(),
                lease_s=0.2) is not None
        day_dir = MissionCache(Path(root) / "cache").day_dir(cfg)
        day_dir.mkdir(parents=True)
        (day_dir / LOCK_NAME).write_text(
            json.dumps({"pid": os.getpid(), "token": "predecessor",
                        "owner": predecessor, "acquired_at": 0.0}))
        stats = serve(config(root, max_attempts=3), drain=True)
        assert stats["recovered_on_start"] == 1
        assert stats["journal_busy"] == 0
        with FleetClient(root) as client:
            record = client.status(receipt.job_id)
            assert record.state == "done"
            assert record.completions == 1

    def test_crashed_slot_is_replaced(self, root, monkeypatch):
        """A registry error inside a slot ends only that slot: the next
        poll starts another, and the job's lost lease expires and reruns."""
        execute, calls = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        mark_running = MissionRegistry.mark_running
        errors = [RegistryUnavailable("registry briefly unavailable")]

        def flaky(self, *args, **kwargs):
            if errors:
                raise errors.pop()
            return mark_running(self, *args, **kwargs)

        monkeypatch.setattr(MissionRegistry, "mark_running", flaky)
        (receipt,) = submit_all(root, [MissionConfig(days=2, seed=1)])
        stats = serve(config(root, n_workers=1, lease_s=0.3), drain=True)
        assert stats["completed"] == 1
        assert stats["requeued"] == 1
        assert len(calls) == 1

    def test_job_timeout_requeues_hung_job(self, root, monkeypatch):
        """A hung worker stops heartbeating; the sweep reclaims the job."""
        hangs = {"n": 0}

        def hang_once(job, *, results_dir, **kwargs):
            hangs["n"] += 1
            if hangs["n"] == 1:
                time.sleep(1.5)  # well past lease_s + timeout below
            return str(results_dir / "r.pkl"), "digest"

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", hang_once)
        (receipt,) = submit_all(root, [MissionConfig(days=2, seed=1)])
        stats = serve(
            config(root, n_workers=1, lease_s=0.3, job_timeout_s=0.2,
                   max_attempts=3),
            drain=True)
        assert hangs["n"] >= 2
        assert stats["requeued"] >= 1
        with FleetClient(root) as client:
            record = client.status(receipt.job_id)
            assert record.state == "done"
            assert record.completions == 1  # the hung attempt never acked


class TestRealJob:
    def test_each_completed_day_stored_once(self, root):
        """A real job leaves one artifact per instrumented day, in the day
        store, and nothing in a second store beside it."""
        cfg = MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)
        submit_all(root, [cfg])
        stats = serve(config(root), drain=True)
        assert stats["completed"] == 1
        days = sorted(p.name for p in Path(root).rglob("day*") if p.is_file())
        assert days == [f"day{d:02d}.pkl" for d in cfg.instrumented_days]
        assert not (Path(root) / "journal").exists()
