"""Worker supervision: crash salvage, deadlines, hand-back to serial.

These tests inject real executor-level faults — workers that SIGKILL
themselves, stall, raise or die halfway through a reply — and assert the
supervisor's contract: one pool per call, a dead or hung worker loses
only its own day, the days left are handed back, no worker outlives the
call, and the mission driver finishes the handed-back days serially,
bit-identical to a serial run.
"""

import dataclasses
import os
import struct
import time
from collections import Counter

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
from tests.integration.test_crash_recovery import _pool_worker_pids

FAST = ExecutionConfig(n_workers=2)
#: Clears real per-day compute (~1 s at frame_dt=5) plus worker start-up,
#: far below the injected 60 s hang.
DEADLINE = dataclasses.replace(FAST, day_deadline_s=4.0)


@pytest.fixture(scope="module")
def cfg():
    return MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)


def _stack(cfg):
    truth = simulate_mission(cfg)
    models = SensingModels.default(cfg, truth.plan)
    return truth, models, Localizer(truth.plan, models.beacons)


@pytest.fixture(scope="module")
def stack(cfg):
    return _stack(cfg)


@pytest.fixture(scope="module")
def cfg4():
    return MissionConfig(days=4, seed=5, frame_dt=5.0, events=None)


@pytest.fixture(scope="module")
def stack4(cfg4):
    return _stack(cfg4)


@pytest.fixture(scope="module")
def serial_result(cfg):
    return run_mission(cfg)


def _supervise(cfg, stack, days, execution=FAST, **kwargs):
    truth, models, localizer = stack
    return run_days_supervised(cfg, truth, models, localizer, days,
                               execution, **kwargs)


def _workers():
    """This process's worker children, zombies included."""
    return set(_pool_worker_pids(os.getpid()))


class TestHappyPath:
    def test_no_faults_completes_all_days(self, cfg, stack):
        before = _workers()
        outcomes = _supervise(cfg, stack, [2, 3])
        assert sorted(outcomes) == [2, 3]
        assert all(outcomes[d].day == d for d in outcomes)
        assert _workers() <= before  # every worker reaped

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
    def test_worker_crash_salvages_and_hands_back(self, cfg4, stack4,
                                                  monkeypatch):
        import repro.exec.supervisor as sup

        starts = []
        original = sup._start_workers

        def counted(*args):
            starts.append(args[0])
            return original(*args)

        monkeypatch.setattr(sup, "_start_workers", counted)
        plan = FaultPlan.build(
            FaultEvent(time_s=2.2 * DAY, action="worker-crash")  # day 3
        )
        harvested = []
        before = _workers()
        # Day 3's injected crash loses only day 3: day 2's worker lives
        # and delivers it, no day is handed out after the loss, and the
        # error names the days left for the caller's serial loop.
        with pytest.raises(ExecutorUnavailable, match=(
                r"^day 3: its worker died; day\(s\) \[3, 4\] left unfinished$"
        )) as err:
            _supervise(dataclasses.replace(cfg4, fault_plan=plan), stack4,
                       [2, 3, 4], on_outcome=lambda o: harvested.append(o.day))
        assert err.value.reason == "executor-unavailable"
        assert len(starts) == 1
        assert harvested == [2]
        assert _workers() <= before

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
        before = _workers()
        t0 = time.monotonic()
        with pytest.raises(ExecutorUnavailable, match=(
                r"^day 2: ran past the 4.0s deadline; day\(s\) \[2\] left"
        )):
            _supervise(cfg, stack, [2, 3], DEADLINE,
                       on_outcome=lambda o: harvested.append(o.day),
                       hang_days=frozenset({2}), hang_s=60.0)
        # The hung worker was SIGKILLed, not waited out, and its sibling's
        # day was delivered.
        assert time.monotonic() - t0 < 30.0
        assert harvested == [3]
        assert _workers() <= before

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
        stack = _stack(cfg)
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


def _observed(cfg, execution):
    """(span name, parent name) pairs and counter series of one run."""
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        run_mission(cfg, execution=execution)
        spans = obs.tracing.collector.spans
        names = {s.span_id: s.name for s in spans}
        pairs = Counter((s.name, names.get(s.parent_id)) for s in spans)
        counters = {
            name: sorted((sorted(s["labels"].items()), s["value"])
                         for s in metric["series"])
            for name, metric in obs.metrics.registry.snapshot().items()
            if metric["type"] == "counter"
        }
        return pairs, counters
    finally:
        obs.reset()


class TestTelemetryMerge:
    def test_pool_tree_is_the_serial_tree_under_one_supervise_span(self, cfg):
        """Worker telemetry joins the ``mission`` span: the pool's tree is
        the serial tree plus ``exec.supervise``, counters unchanged."""
        serial_pairs, serial_counters = _observed(cfg, ExecutionConfig())
        pool_pairs, pool_counters = _observed(cfg, FAST)
        assert serial_pairs[("exec.compute_day", "mission")] == 2
        assert pool_pairs == serial_pairs + Counter(
            {("exec.supervise", "mission"): 1})
        assert pool_counters == serial_counters


class TestWorkerFailures:
    def test_day_exception_reraises_with_worker_traceback(
            self, cfg, stack, monkeypatch):
        """A day that raises in a worker raises in the driver, as on the
        serial path, with the worker's traceback text attached."""
        import repro.exec.supervisor as sup

        def exploding_day(cfg_, truth, day, *args, **kwargs):
            raise ValueError(f"sensor model exploded on day {day}")

        monkeypatch.setattr(sup, "compute_day", exploding_day)
        before = _workers()
        t0 = time.monotonic()
        with pytest.raises(ValueError,
                           match=r"^sensor model exploded on day [23]$") as err:
            _supervise(cfg, stack, [2, 3])
        assert time.monotonic() - t0 < 30.0
        assert type(err.value) is ValueError
        assert "exploding_day" in str(err.value.__cause__)
        assert _workers() <= before

    def test_half_sent_reply_is_a_lost_day(self, cfg, stack, monkeypatch):
        """A worker that dies halfway through its reply leaves half a
        message in its pipe: its day is lost, and the call does not wait
        for the rest."""
        import repro.exec.supervisor as sup

        def half_reply(conn, *args):
            conn.recv()
            # A frame header promising 1000 bytes, and one byte of them.
            os.write(conn.fileno(), struct.pack("!i", 1000) + b"x")
            os._exit(0)

        monkeypatch.setattr(sup, "_worker", half_reply)
        t0 = time.monotonic()
        with pytest.raises(ExecutorUnavailable, match=(
                r"^day 2: its worker died; day 3: its worker died; "
                r"day\(s\) \[2, 3\] left unfinished$")):
            _supervise(cfg, stack, [2, 3])
        assert time.monotonic() - t0 < 10.0


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
        import repro.exec.supervisor as sup

        monkeypatch.setattr(config_mod.os, "cpu_count", lambda: 8)

        def pool_forbidden(*args, **kwargs):
            raise AssertionError("small auto mission must not start a pool")

        monkeypatch.setattr(sup, "_start_workers", pool_forbidden)
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
