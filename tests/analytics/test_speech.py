"""Tests for the Fig-6 speech analysis."""

import numpy as np
import pytest

from repro.analytics.dataset import BadgeDaySummary
from repro.analytics.speech import (
    daily_speech_fraction,
    loud_voice_mask,
    mission_speech_fraction,
    speech_windows,
)


def make_summary(voice_db, stability=None, active=None, dt=1.0):
    voice = np.asarray(voice_db, dtype=np.float32)
    n = voice.shape[0]
    if stability is None:
        stability = np.full(n, 0.4, dtype=np.float32)
    if active is None:
        active = np.ones(n, dtype=bool)
    zeros = np.zeros(n, dtype=np.float32)
    return BadgeDaySummary(
        badge_id=0, day=2, t0=0.0, dt=dt,
        active=active, worn=np.ones(n, dtype=bool),
        room=np.zeros(n, dtype=np.int8), x=zeros, y=zeros,
        accel_rms=zeros, voice_db=voice,
        dominant_pitch_hz=np.full(n, 120.0, dtype=np.float32),
        pitch_stability=np.asarray(stability, dtype=np.float32), sound_db=zeros,
    )


class TestPaperRule:
    def test_exactly_20_percent_is_speech(self):
        """A 15 s interval with exactly 3 loud seconds (20%) counts."""
        voice = np.full(15, 40.0)
        voice[:3] = 65.0
        windows = speech_windows(make_summary(voice))
        assert windows.is_speech[0]

    def test_below_20_percent_is_not(self):
        voice = np.full(15, 40.0)
        voice[:2] = 65.0
        windows = speech_windows(make_summary(voice))
        assert not windows.is_speech[0]

    def test_level_threshold_60db(self):
        quiet = np.full(15, 59.0)
        loud = np.full(15, 60.0)
        assert not speech_windows(make_summary(quiet)).is_speech[0]
        assert speech_windows(make_summary(loud)).is_speech[0]

    def test_window_count(self):
        windows = speech_windows(make_summary(np.zeros(150)))
        assert len(windows.is_speech) == 10

    def test_unrecorded_window_excluded(self):
        voice = np.full(30, 65.0)
        active = np.ones(30, dtype=bool)
        active[15:] = False
        windows = speech_windows(make_summary(voice, active=active))
        assert windows.recorded[0] and not windows.recorded[1]
        assert windows.fraction() == 1.0

    def test_fraction_of_a_noisy_day_is_a_share(self):
        voice = np.random.default_rng(0).normal(55.0, 10.0, 14 * 3600)
        assert 0.0 < speech_windows(make_summary(voice)).fraction() < 1.0


class TestMachineRejection:
    def test_tts_frames_rejected(self):
        voice = np.full(15, 70.0)
        stability = np.full(15, 0.95)  # monotone screen reader
        summary = make_summary(voice, stability=stability)
        assert not speech_windows(summary, reject_machine=True).is_speech[0]
        assert speech_windows(summary, reject_machine=False).is_speech[0]

    def test_human_frames_kept(self):
        summary = make_summary(np.full(15, 70.0))
        assert loud_voice_mask(summary).all()


class TestMissionLevel:
    def test_fig6_band(self, sensing):
        series = daily_speech_fraction(sensing)
        values = [v for per_day in series.values() for v in per_day.values()]
        assert 0.05 < np.mean(values) < 0.9

    def test_c_is_the_top_talker(self, sensing):
        fractions = mission_speech_fraction(sensing)
        assert max(fractions, key=fractions.get) == "C"

    def test_machine_filter_lowers_a(self, sensing):
        """A's badge hears the screen reader; rejecting it lowers A's
        speech fraction but nobody else's materially."""
        with_filter = mission_speech_fraction(sensing, reject_machine=True)
        without = mission_speech_fraction(sensing, reject_machine=False)
        assert without["A"] >= with_filter["A"]
        assert without["E"] == pytest.approx(with_filter["E"], abs=0.02)

    def test_every_astronaut_has_series(self, sensing, truth):
        series = daily_speech_fraction(sensing)
        assert set(series) == set(truth.roster.ids)
