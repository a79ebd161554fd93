"""Tier-2 chaos: real SIGKILLs against a live mission, then resume.

Three acceptance scenarios for the crash-safety subsystem:

* the whole driver process group (driver + pool workers) is SIGKILLed
  mid-mission; rerunning it on the same day store restores the stored
  days and completes **bit-identical** to an uninterrupted serial run;
* the driver alone is SIGKILLed; its pool workers exit on their own;
* a single pool worker is SIGKILLed out from under a live in-process
  mission; the supervisor salvages, hands the unfinished days back, and
  the mission completes them serially, bit-identically, without any
  resume at all.

These spawn real subprocesses and kill them, so they live in tier 2
(scheduled/manual CI), not the per-push tier-1 suite.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import ExecutionConfig, MissionConfig
from repro.experiments.mission import run_mission

from tests.exec.test_executor import assert_bit_identical

REPO = Path(__file__).resolve().parents[2]

DRIVER = """\
import sys
from repro.core.config import ExecutionConfig, MissionConfig
from repro.experiments.mission import run_mission

cfg = MissionConfig(days=4, seed=5, frame_dt=5.0, events=None)
run_mission(cfg, execution=ExecutionConfig(
    n_workers=2, cache_dir=sys.argv[1],
))
print("MISSION-COMPLETED", flush=True)
"""


def _cfg():
    return MissionConfig(days=4, seed=5, frame_dt=5.0, events=None)


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted serial run — the bit-identity reference."""
    return run_mission(_cfg())


def _driver_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _wait_for_checkpoint(ckpt: Path, proc: subprocess.Popen,
                         timeout_s: float = 180.0) -> list[Path]:
    """Block until the day store holds at least one day record."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        found = sorted(ckpt.glob("sensing-*/day*.pkl"))
        if found:
            return found
        if proc.poll() is not None:
            raise AssertionError(
                f"driver exited (rc={proc.returncode}) before storing "
                f"anything:\n{proc.stdout.read()}"
            )
        time.sleep(0.01)
    raise AssertionError("no checkpoint appeared within the timeout")


@pytest.mark.tier2
class TestDriverKilledMidMission:
    def test_sigkill_then_resume_is_bit_identical(self, baseline, tmp_path):
        ckpt = tmp_path / "ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-c", DRIVER, str(ckpt)],
            env=_driver_env(), cwd=str(REPO), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            _wait_for_checkpoint(ckpt, proc)
            # SIGKILL the whole group: driver AND its pool workers die
            # with no chance to flush or clean up — the real crash.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.close()
        assert proc.returncode != 0  # killed, not completed

        resumed = run_mission(_cfg(), execution=ExecutionConfig(
            cache_dir=str(ckpt),
        ))
        checkpoint = resumed.cache_stats["checkpoint"]
        assert checkpoint["resumed_days"], "nothing was restored from the store"
        assert set(checkpoint["resumed_days"]) <= {2, 3, 4}
        assert_bit_identical(baseline, resumed)

    def test_cli_resume_after_kill(self, tmp_path):
        """The operator-facing path: rerunning the same ``repro run``
        command finishes the mission a SIGKILLed run left behind."""
        ckpt = tmp_path / "ckpt"
        args = [sys.executable, "-m", "repro", "run", "--days", "4",
                "--seed", "5", "--no-events", "--workers", "2",
                "--checkpoint", str(ckpt)]
        proc = subprocess.Popen(
            args, env=_driver_env(), cwd=str(REPO), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            _wait_for_checkpoint(ckpt, proc)
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.close()

        done = subprocess.run(
            args, env=_driver_env(), cwd=str(REPO),
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "resumed" in done.stdout
        assert "day(s) from checkpoint" in done.stdout


def _pool_worker_pids(parent_pid: int) -> list[int]:
    """Direct children of ``parent_pid`` that look like pool workers
    (resource trackers and other helpers are excluded)."""
    workers = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[1]) != parent_pid:
                continue
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except (OSError, IndexError, ValueError):
            continue
        if b"resource_tracker" in cmdline:
            continue
        workers.append(pid)
    return workers


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


@pytest.mark.tier2
class TestDriverKilledAlone:
    def test_pool_workers_exit_with_their_driver(self, tmp_path):
        """SIGKILL the driver but not its process group: its pool workers,
        blocked on a call queue nobody will write to again, must exit on
        their own instead of living on as orphans."""
        proc = subprocess.Popen(
            [sys.executable, "-c", DRIVER, str(tmp_path / "ckpt")],
            env=_driver_env(), cwd=str(REPO), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 180.0
            workers: list[int] = []
            while len(workers) < 2 and time.monotonic() < deadline:
                assert proc.poll() is None, "the driver ended before its pool started"
                workers = _pool_worker_pids(proc.pid)
                time.sleep(0.01)
            assert len(workers) == 2, f"pool workers seen: {workers}"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            orphans = [pid for pid in workers if _running(pid)]
            assert not orphans, f"pool workers {orphans} outlived their driver"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)


@pytest.mark.tier2
class TestWorkerKilledMidMission:
    def test_external_worker_sigkill_recovers_bit_identical(self, baseline):
        """A pool worker OOM-killed by the outside world: the supervisor
        must salvage, hand back, and still produce exact results."""
        from repro import obs

        box = {}

        def drive():
            box["result"] = run_mission(_cfg(), execution=ExecutionConfig(
                n_workers=2,
            ))

        obs.reset()
        obs.enable()
        try:
            thread = threading.Thread(target=drive)
            thread.start()
            deadline = time.monotonic() + 180.0
            killed = None
            while time.monotonic() < deadline and thread.is_alive():
                workers = _pool_worker_pids(os.getpid())
                if workers:
                    try:
                        os.kill(workers[0], signal.SIGKILL)
                    except ProcessLookupError:
                        continue  # worker exited first; try again
                    killed = workers[0]
                    break
                time.sleep(0.005)
            thread.join(timeout=600)
            assert not thread.is_alive(), "mission never finished after the kill"
            assert killed is not None, "no pool worker ever appeared"
            snapshot = obs.metrics.registry.snapshot()
        finally:
            obs.reset()

        result = box["result"]
        assert_bit_identical(baseline, result)
        # The kill really was absorbed by the supervisor, not dodged.
        assert snapshot.get("exec.fallback") is not None, (
            "worker SIGKILL left no trace: no serial fallback was recorded"
        )
