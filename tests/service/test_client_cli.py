"""The `repro serve/submit/status/result/drain` CLI surface.

Satellite contract: an unreachable or locked registry must exit
non-zero with one line on stderr — never a traceback — and admission
rejections exit 75 (EX_TEMPFAIL).
"""

import os
import sqlite3

import pytest

from repro import MissionConfig
from repro.__main__ import main
from repro.service import FleetClient, QueueFullError, ServiceError
from repro.service import service as service_mod


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "fleet")


def fake_execute(monkeypatch):
    def execute(job, *, cache_dir, results_dir):
        from repro.exec import hashing, integrity

        path = results_dir / f"{job.fingerprint}.pkl"
        digest = integrity.write_artifact(
            path, {"fingerprint": job.fingerprint, "badge_days": 0,
                   "sdcard_gib": 0.0, "quality": None},
            schema=hashing.SCHEMA_VERSION)
        return str(path), digest

    monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)


SUBMIT = ["submit", "--days", "2", "--seed", "3", "--frame-dt", "10"]


class TestHappyPath:
    def test_submit_drain_status_result(self, root, monkeypatch, capsys):
        fake_execute(monkeypatch)
        assert main(SUBMIT + ["--service", root]) == 0
        out = capsys.readouterr().out
        assert "submitted as job j" in out
        job_id = out.split("job ")[1].split(" ")[0]

        assert main(SUBMIT + ["--service", root]) == 0
        assert "deduplicated onto job " + job_id in capsys.readouterr().out

        assert main(["drain", "--service", root, "--workers", "1"]) == 0
        assert "drained: " in capsys.readouterr().out

        assert main(["status", "--service", root, job_id]) == 0
        out = capsys.readouterr().out
        assert f"job {job_id}  state=done" in out
        assert "submissions=2" in out

        assert main(["status", "--service", root]) == 0
        out = capsys.readouterr().out
        assert "done=1" in out
        assert "(1 deduplicated onto 1 jobs)" in out

        assert main(["result", "--service", root, job_id]) == 0
        assert "badge-days: 0" in capsys.readouterr().out

    def test_result_of_queued_job_is_clean_error(self, root, capsys):
        assert main(SUBMIT + ["--service", root]) == 0
        job_id = capsys.readouterr().out.split("job ")[1].split(" ")[0]
        assert main(["result", "--service", root, job_id]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "queued, not done" in err


class TestUnreachableRegistry:
    def test_status_on_missing_registry_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["status", "--service", missing]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one line, no traceback
        assert "no service registry" in err

    def test_unknown_job_exits_2(self, root, monkeypatch, capsys):
        fake_execute(monkeypatch)
        assert main(SUBMIT + ["--service", root]) == 0
        capsys.readouterr()
        assert main(["status", "--service", root, "zzzz"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: no job 'zzzz'")
        assert err.count("\n") == 1

    def test_locked_registry_exits_2(self, root, monkeypatch, capsys):
        assert main(SUBMIT + ["--service", root]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_REGISTRY_TIMEOUT_S", "0.1")
        blocker = sqlite3.connect(root + "/registry.db", isolation_level=None)
        blocker.execute("BEGIN EXCLUSIVE")
        try:
            code = main(SUBMIT + ["--service", root])
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert err.count("\n") == 1
        assert "unavailable" in err


class TestBackpressure:
    def test_queue_full_exits_75_with_retry_hint(self, root, capsys):
        with FleetClient(root, create=True) as client:
            client.registry.set_meta(queue_depth=1, n_workers=1,
                                     nominal_job_s=5.0)
        assert main(SUBMIT + ["--service", root]) == 0
        capsys.readouterr()
        assert main(["submit", "--days", "2", "--seed", "99",
                     "--service", root]) == 75
        err = capsys.readouterr().err
        assert "queue full (1/1" in err
        assert "retry after" in err


    def test_retry_hint_uses_the_measured_job_time(self, root):
        with FleetClient(root, create=True) as client:
            client.registry.set_meta(queue_depth=2, n_workers=2)
            client.submit(MissionConfig(days=2, seed=1))
            job = client.registry.lease_next(owner="w", pid=os.getpid(),
                                             now=100.0, lease_s=30.0)
            client.registry.complete(job.job_id, job.lease_token,
                                     result_path="r", result_digest="d",
                                     now=108.0)
            for seed in (2, 3):
                client.submit(MissionConfig(days=2, seed=seed))
            with pytest.raises(QueueFullError) as err:
                client.submit(MissionConfig(days=2, seed=4))
        assert err.value.retry_after_s == 8.0  # 2 jobs x 8 s / 2 workers


class TestClient:
    def test_wait_times_out_cleanly(self, root):
        with FleetClient(root, create=True) as client:
            from repro import MissionConfig

            receipt = client.submit(MissionConfig(days=2, seed=1))
            with pytest.raises(ServiceError, match="timed out"):
                client.wait(receipt.job_id, timeout_s=0.05, poll_s=0.01)
