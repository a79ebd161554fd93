"""Tests for mission, Martian, and device clocks."""

import pytest

from repro.core.clock import EARTH_DAY_S, MARS_SOL_S, ClockModel, MartianClock, MissionClock
from repro.core.errors import ConfigError


class TestMissionClock:
    def test_day_one_starts_at_zero(self):
        clock = MissionClock()
        assert clock.absolute(1, 0.0) == 0.0

    def test_round_trip(self):
        clock = MissionClock()
        t = clock.absolute(4, 12345.0)
        assert clock.day_of(t) == 4
        assert clock.seconds_of_day(t) == pytest.approx(12345.0)

    def test_day_boundaries(self):
        clock = MissionClock()
        assert clock.day_of(EARTH_DAY_S - 1e-6) == 1
        assert clock.day_of(EARTH_DAY_S) == 2

    def test_invalid_day_rejected(self):
        with pytest.raises(ConfigError):
            MissionClock().absolute(0)

    def test_out_of_range_offset_rejected(self):
        with pytest.raises(ConfigError):
            MissionClock().absolute(1, EARTH_DAY_S + 1.0)


class TestMartianClock:
    def test_sol_longer_than_day(self):
        assert MARS_SOL_S > EARTH_DAY_S

    def test_daily_shift_is_about_40_minutes(self):
        shift = MartianClock().sol_length_s - EARTH_DAY_S
        assert 39 * 60 < shift < 40 * 60

    def test_sol_indexing(self):
        clock = MartianClock()
        assert clock.sol_of(0.0) == 1
        assert clock.sol_of(MARS_SOL_S + 1.0) == 2

    def test_seconds_of_sol_wraps(self):
        clock = MartianClock()
        assert clock.seconds_of_sol(MARS_SOL_S) == pytest.approx(0.0)

    def test_epoch_offset(self):
        clock = MartianClock(epoch_offset_s=100.0)
        assert clock.seconds_of_sol(0.0) == pytest.approx(100.0)


class TestClockModel:
    def test_perfect_clock(self):
        clock = ClockModel()
        assert clock.local_time(1000.0) == 1000.0
        assert clock.error_at(1000.0) == 0.0

    def test_drift_accumulates(self):
        clock = ClockModel(drift_ppm=100.0)  # 100 us per second
        assert clock.error_at(10_000.0) == pytest.approx(1.0)

    def test_offset(self):
        clock = ClockModel(offset_s=5.0)
        assert clock.local_time(0.0) == 5.0

    def test_correct_zeroes_error(self):
        clock = ClockModel(offset_s=4.0, drift_ppm=20.0)
        t = 50_000.0
        clock.correct(reference_local=t, own_local=clock.local_time(t))
        assert clock.error_at(t) == pytest.approx(0.0, abs=1e-9)

    def test_error_regrows_after_correction(self):
        clock = ClockModel(drift_ppm=200.0)
        clock.correct(reference_local=1000.0, own_local=clock.local_time(1000.0))
        assert abs(clock.error_at(11_000.0)) == pytest.approx(2.0, rel=1e-3)
