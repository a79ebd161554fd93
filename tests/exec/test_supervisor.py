"""Worker supervision: crash salvage, deadlines, hand-back to serial.

These tests inject real executor-level faults — workers that SIGKILL
themselves or stall — and assert the supervisor's contract: one pool per
call, no completed work is ever lost, a broken or hung pool hands its
unfinished days back, and the mission driver finishes them serially,
bit-identical to a serial run.
"""

import dataclasses
import time

import pytest

from repro.badges.pipeline import SensingModels
from repro.core.config import ExecutionConfig, MissionConfig
from repro.core.errors import ConfigError
from repro.core.units import DAY
from repro.crew.behavior import simulate_mission
from repro.exec.executor import ExecutorUnavailable
from repro.exec.supervisor import run_days_supervised
from repro.experiments.mission import run_mission
from repro.faults import FaultCampaign
from repro.faults.plan import FaultEvent, FaultPlan
from repro.localization.pipeline import Localizer

from tests.exec.test_executor import assert_bit_identical

FAST = ExecutionConfig(n_workers=2)
#: Clears real per-day compute (~1 s at frame_dt=5) plus worker start-up,
#: far below the injected 60 s hang.
DEADLINE = dataclasses.replace(FAST, day_deadline_s=4.0)


@pytest.fixture(scope="module")
def cfg():
    return MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)


@pytest.fixture(scope="module")
def stack(cfg):
    truth = simulate_mission(cfg)
    models = SensingModels.default(cfg, truth.plan)
    localizer = Localizer(truth.plan, models.beacons)
    return truth, models, localizer


@pytest.fixture(scope="module")
def serial_result(cfg):
    return run_mission(cfg)


def _supervise(cfg, stack, days, execution=FAST, **kwargs):
    truth, models, localizer = stack
    return run_days_supervised(cfg, truth, models, localizer, days,
                               execution, **kwargs)


class TestHappyPath:
    def test_no_faults_completes_all_days(self, cfg, stack):
        outcomes = _supervise(cfg, stack, [2, 3])
        assert sorted(outcomes) == [2, 3]
        assert all(outcomes[d].day == d for d in outcomes)

    def test_on_outcome_sees_every_day(self, cfg, stack):
        seen = []
        _supervise(cfg, stack, [2, 3],
                   on_outcome=lambda o: seen.append(o.day))
        assert sorted(seen) == [2, 3]

    def test_refuses_serial_worker_count(self, cfg, stack):
        with pytest.raises(ConfigError):
            _supervise(cfg, stack, [2], ExecutionConfig())

    def test_refuses_sensing_fault_plans(self, cfg, stack):
        plan = FaultPlan.build(
            FaultEvent(time_s=1.5 * DAY, action="badge-battery", target="1")
        )
        faulted = dataclasses.replace(cfg, fault_plan=plan)
        with pytest.raises(ExecutorUnavailable, match="sensing-fault"):
            _supervise(faulted, stack, [2, 3])


class TestCrashRecovery:
    def test_worker_crash_salvages_and_hands_back(self, cfg, stack,
                                                  monkeypatch):
        import repro.exec.supervisor as sup

        spawns = []
        original = sup._spawn_pool

        def counted(*args):
            spawns.append(args[0])
            return original(*args)

        monkeypatch.setattr(sup, "_spawn_pool", counted)
        harvested = []
        # Day 3's injected crash breaks the one pool; the error names the
        # days left for the caller's serial loop, and only a day that
        # finished first can have been handed over.
        with pytest.raises(ExecutorUnavailable,
                           match=r"broke .*day\(s\) \[(2, )?3\] left"):
            _supervise(cfg, stack, [2, 3],
                       on_outcome=lambda o: harvested.append(o.day),
                       crash_days=frozenset({3}))
        assert len(spawns) == 1
        assert set(harvested) <= {2}

    def test_crash_run_is_bit_identical(self, cfg, serial_result):
        plan = FaultPlan.build(
            FaultEvent(time_s=2.2 * DAY, action="worker-crash")  # day 3
        )
        assert plan.worker_crash_days() == frozenset({3})
        faulted = dataclasses.replace(cfg, fault_plan=plan)
        result = run_mission(faulted, execution=FAST)
        assert_bit_identical(serial_result, result)

    def test_every_day_crashing_once_still_completes(self, cfg, serial_result):
        plan = FaultPlan.build(
            FaultEvent(time_s=1.1 * DAY, action="worker-crash"),  # day 2
            FaultEvent(time_s=2.1 * DAY, action="worker-crash"),  # day 3
        )
        faulted = dataclasses.replace(cfg, fault_plan=plan)
        result = run_mission(faulted, execution=FAST)
        assert_bit_identical(serial_result, result)

    def test_crash_telemetry_counters(self, cfg):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            plan = FaultPlan.build(
                FaultEvent(time_s=1.4 * DAY, action="worker-crash")
            )
            run_mission(dataclasses.replace(cfg, fault_plan=plan),
                        execution=FAST)
            snap = obs.metrics.registry.snapshot()
            assert [(s["labels"]["reason"], s["value"])
                    for s in snap["exec.fallback"]["series"]] == [
                ("executor-unavailable", 1)
            ]
        finally:
            obs.reset()


class TestDeadlines:
    def test_hung_worker_is_killed_and_handed_back(self, cfg, stack):
        harvested = []
        t0 = time.monotonic()
        with pytest.raises(ExecutorUnavailable, match="deadline"):
            _supervise(cfg, stack, [2, 3], DEADLINE,
                       on_outcome=lambda o: harvested.append(o.day),
                       hang_days=frozenset({2}), hang_s=60.0)
        # The hung worker was SIGKILLed, not waited out.
        assert time.monotonic() - t0 < 30.0
        assert set(harvested) <= {3}

    def test_hung_mission_is_bit_identical(self, cfg, serial_result,
                                           monkeypatch):
        """A mission whose pool hangs on day 2 finishes that day (and
        any other left) serially, exactly as a serial run would."""
        import repro.experiments.mission as mission_mod

        real = mission_mod.run_days_supervised
        handed_back = []

        def hanging(*args, **kwargs):
            try:
                return real(*args, hang_days=frozenset({2}), hang_s=60.0,
                            **kwargs)
            except ExecutorUnavailable as exc:
                handed_back.append(str(exc))
                raise

        monkeypatch.setattr(mission_mod, "run_days_supervised", hanging)
        result = run_mission(cfg, execution=DEADLINE)
        assert len(handed_back) == 1 and "deadline" in handed_back[0]
        assert_bit_identical(serial_result, result)

    def test_queued_day_is_not_on_the_clock(self):
        """Three 1 s days on two workers: the third waits for a free
        worker, and that wait must not count against its deadline."""
        cfg = MissionConfig(days=4, seed=5, frame_dt=60.0, events=None)
        truth = simulate_mission(cfg)
        models = SensingModels.default(cfg, truth.plan)
        stack = truth, models, Localizer(truth.plan, models.beacons)
        execution = dataclasses.replace(FAST, day_deadline_s=1.6)
        outcomes = _supervise(cfg, stack, [2, 3, 4], execution,
                              hang_days=frozenset({2, 3, 4}), hang_s=1.0)
        assert sorted(outcomes) == [2, 3, 4]

    def test_timeout_counter_increments(self, cfg, stack):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            with pytest.raises(ExecutorUnavailable, match="deadline"):
                _supervise(cfg, stack, [2, 3], DEADLINE,
                           hang_days=frozenset({3}), hang_s=60.0)
            snap = obs.metrics.registry.snapshot()
            assert snap["exec.timeouts"]["series"][0]["value"] >= 1
        finally:
            obs.reset()


class TestKillPool:
    def test_half_sent_result_does_not_hang_the_pool(self):
        """A worker killed while sending its result leaves half a message
        in the result pipe; killing the pool must still end the pool's
        manager thread, which the interpreter joins at exit."""
        import concurrent.futures as cf
        import os
        import struct

        import repro.exec.supervisor as sup

        pool = cf.ProcessPoolExecutor(max_workers=1)
        pool.submit(int).result()  # worker and manager thread are up
        manager = pool._executor_manager_thread
        fd = pool._result_queue._writer.fileno()
        # A frame header promising 1000 bytes, and one byte of them.
        os.write(fd, struct.pack("!i", 1000) + b"x")
        sup._kill_pool(pool)
        manager.join(timeout=10.0)
        stuck = manager.is_alive()
        if stuck:  # finish the frame so the thread ends with the test
            os.write(fd, b"x" * 999)
            manager.join(timeout=10.0)
        assert not stuck


class TestBoundedDegradation:
    def test_mission_degrades_to_serial_and_matches(self, cfg, serial_result,
                                                    monkeypatch):
        """A supervisor give-up finishes the mission serially, keeping
        salvaged days — end result still bit-identical."""
        import repro.experiments.mission as mission_mod

        calls = {"n": 0}
        real = mission_mod.run_days_supervised

        def flaky(cfg_, truth, models, localizer, days, execution, *,
                  on_outcome=None, **kwargs):
            calls["n"] += 1
            # Deliver the first day, then give up.
            partial = real(cfg_, truth, models, localizer, days[:1],
                           execution, on_outcome=on_outcome, **kwargs)
            raise ExecutorUnavailable("injected give-up after partial progress")

        monkeypatch.setattr(mission_mod, "run_days_supervised", flaky)
        result = run_mission(cfg, execution=FAST)
        assert calls["n"] == 1
        assert_bit_identical(serial_result, result)

    def test_fallback_is_signalled_not_silent(self, cfg, monkeypatch):
        """Satellite: every serial downgrade logs + counts exec.fallback."""
        from repro import obs
        import repro.experiments.mission as mission_mod

        def broken(*args, **kwargs):
            raise ExecutorUnavailable("no pool for you")

        monkeypatch.setattr(mission_mod, "run_days_supervised", broken)
        obs.reset()
        obs.enable()
        try:
            run_mission(cfg, execution=FAST)
            snap = obs.metrics.registry.snapshot()
            series = snap["exec.fallback"]["series"]
            assert [s["labels"]["reason"] for s in series] == [
                "executor-unavailable"
            ]
            records = [r for r in obs.logging.buffer.records
                       if r.event == "parallel-fallback"]
            assert records and records[0].fields["reason"] == "executor-unavailable"
        finally:
            obs.reset()

    def test_sensing_fault_fallback_reason(self, monkeypatch):
        from repro import obs

        plan = FaultCampaign.reference(days=3, seed=1).generate()
        cfg = MissionConfig(days=3, seed=5, frame_dt=5.0, events=None,
                            fault_plan=plan)
        obs.reset()
        obs.enable()
        try:
            run_mission(cfg, execution=FAST)
            series = obs.metrics.registry.snapshot()["exec.fallback"]["series"]
            assert [s["labels"]["reason"] for s in series] == [
                "sensing-fault-plan"
            ]
        finally:
            obs.reset()

    def test_auto_stays_serial_on_small_missions(self, cfg, serial_result,
                                                 monkeypatch):
        """ROADMAP item 1: "auto" must not spin up a pool whose fork +
        pickling overhead exceeds the mission's whole day-compute."""
        from repro import obs
        import repro.core.config as config_mod
        import repro.experiments.mission as mission_mod

        monkeypatch.setattr(config_mod.os, "cpu_count", lambda: 8)

        def pool_forbidden(*args, **kwargs):
            raise AssertionError("small auto mission must not start a pool")

        monkeypatch.setattr(mission_mod, "run_days_supervised", pool_forbidden)
        obs.reset()
        obs.enable()
        try:
            result = run_mission(cfg, execution=ExecutionConfig(n_workers="auto"))
            series = obs.metrics.registry.snapshot()["exec.fallback"]["series"]
            assert [s["labels"]["reason"] for s in series] == [
                "auto-small-mission"
            ]
        finally:
            obs.reset()
        assert_bit_identical(serial_result, result)
