"""Tests for the per-sensor synthesis models."""

import numpy as np
import pytest

from repro.badges.sensors.accelerometer import AccelerometerModel
from repro.badges.sensors.imu import ImuModel
from repro.badges.sensors.microphone import (
    MicrophoneModel,
    MicrophoneOutput,
    SpeechSources,
)
from repro.core.config import MissionConfig
from repro.crew.behavior import simulate_mission
from repro.crew.tasks import Activity
from repro.habitat.environment import Environment
from repro.habitat.floorplan import lunares_floorplan


@pytest.fixture(scope="module")
def plan():
    return lunares_floorplan()


def mic_one(sources, badge_xy, badge_room, active, wall_matrix, noise_floors):
    """One badge's microphone features, as a fleet batch of one."""
    fleet = MicrophoneModel().synthesize_fleet(
        sources, badge_xy[None], badge_room[None], active[None],
        wall_matrix, noise_floors, (np.random.default_rng(0),),
    )
    return MicrophoneOutput(**{name: rows[0] for name, rows in vars(fleet).items()})


class TestAccelerometer:
    def setup_method(self):
        self.model = AccelerometerModel()
        self.n = 5000

    def synth(self, walking=False, worn=True, active=True, seed=0):
        n = self.n
        return self.model.synthesize(
            np.full(n, walking), np.full(n, worn), np.full(n, active),
            np.full(n, int(Activity.WORK), dtype=np.int8), np.random.default_rng(seed),
        )

    def test_walking_above_threshold(self):
        accel = self.synth(walking=True)
        assert (accel > 1.2).mean() > 0.98

    def test_stationary_below_threshold(self):
        accel = self.synth(walking=False)
        assert (accel > 1.2).mean() < 0.02

    def test_desk_is_nearly_still(self):
        accel = self.synth(worn=False)
        assert np.nanmean(accel) < 0.1

    def test_inactive_is_nan(self):
        accel = self.synth(active=False)
        assert np.isnan(accel).all()

    def test_nonnegative(self):
        assert (self.synth(walking=False) >= 0).all()

    def test_bumps_occur(self):
        model = AccelerometerModel(bump_prob=0.2)
        accel = model.synthesize(
            np.zeros(self.n, dtype=bool), np.ones(self.n, dtype=bool),
            np.ones(self.n, dtype=bool), np.full(self.n, int(Activity.WORK), dtype=np.int8),
            np.random.default_rng(0),
        )
        assert (accel > 1.2).mean() > 0.1


class TestImu:
    def test_gyro_walking_higher(self):
        model = ImuModel()
        n = 2000
        walking = np.zeros(n, dtype=bool)
        walking[: n // 2] = True
        gyro, heading = model.synthesize(
            walking, np.ones(n, dtype=bool), np.ones(n, dtype=bool),
            np.random.default_rng(0),
        )
        assert np.nanmean(gyro[: n // 2]) > 3 * np.nanmean(gyro[n // 2:])
        assert ((heading >= 0) & (heading < 2 * np.pi)).all()


class TestMicrophone:
    @pytest.fixture(scope="class")
    def day_inputs(self, plan):
        cfg = MissionConfig(days=3, seed=2, events=None)
        truth = simulate_mission(cfg)
        sources = SpeechSources.from_truth(truth, 2)
        return truth, sources, plan

    def test_speaker_badge_hears_itself(self, day_inputs, plan):
        truth, sources, __ = day_inputs
        trace = truth.trace("F", 2)
        n = trace.n_frames
        badge_xy = np.column_stack([trace.x, trace.y]).astype(np.float64)
        badge_xy[np.isnan(badge_xy)] = 0.0
        mic = mic_one(
            sources, badge_xy, trace.room, np.ones(n, dtype=bool),
            plan.wall_matrix(), np.full(plan.n_rooms, 35.0),
        )
        own = trace.speaking & (trace.room >= 0)
        assert np.nanmedian(mic.voice_db[own]) > 70.0

    def test_silence_when_nobody_talks(self, day_inputs, plan):
        truth, sources, __ = day_inputs
        trace = truth.trace("F", 2)
        n = trace.n_frames
        badge_xy = np.column_stack([trace.x, trace.y]).astype(np.float64)
        badge_xy[np.isnan(badge_xy)] = 0.0
        mic = mic_one(
            sources, badge_xy, trace.room, np.ones(n, dtype=bool),
            plan.wall_matrix(), np.full(plan.n_rooms, 35.0),
        )
        anyone = sources.speaking.any(axis=0)
        silent = ~anyone & (trace.room >= 0)
        assert not np.isfinite(mic.voice_db[silent]).any() or (
            mic.voice_db[silent][np.isfinite(mic.voice_db[silent])] < 60
        ).all()

    def test_machine_speech_high_stability(self, day_inputs, plan):
        truth, sources, __ = day_inputs
        if not sources.is_machine.any():
            pytest.skip("no TTS on this seed")
        trace = truth.trace("A", 2)
        n = trace.n_frames
        badge_xy = np.column_stack([trace.x, trace.y]).astype(np.float64)
        badge_xy[np.isnan(badge_xy)] = 0.0
        mic = mic_one(
            sources, badge_xy, trace.room, np.ones(n, dtype=bool),
            plan.wall_matrix(), np.full(plan.n_rooms, 35.0),
        )
        tts_only = trace.machine_speech & ~sources.speaking[:6].any(axis=0)
        if tts_only.sum() < 50:
            pytest.skip("not enough solo TTS frames")
        stability = mic.pitch_stability[tts_only]
        assert np.nanmedian(stability) > 0.8

    def test_sound_floor_from_room_noise(self, day_inputs, plan):
        truth, sources, __ = day_inputs
        n = 100
        badge_xy = np.tile(np.array(plan.room("bedroom").rect.center), (n, 1))
        rooms = np.full(n, plan.index_of("bedroom"), dtype=np.int8)
        empty = SpeechSources(
            xy=np.zeros((1, n, 2)), room=np.full((1, n), -1, dtype=np.int8),
            speaking=np.zeros((1, n), dtype=bool),
            loudness=np.zeros((1, n), dtype=np.float32),
            pitch_hz=np.array([120.0]), is_machine=np.array([False]),
        )
        mic = mic_one(
            empty, badge_xy, rooms, np.ones(n, dtype=bool),
            plan.wall_matrix(), np.full(plan.n_rooms, 30.0),
        )
        assert np.nanmean(mic.sound_db) == pytest.approx(30.0, abs=2.0)
        assert not np.isfinite(mic.voice_db).any()
