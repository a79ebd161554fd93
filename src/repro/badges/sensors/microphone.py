"""Microphone feature synthesis.

The badge microphone was used "to detect the presence of human speech,
its loudness, and frequency, notably for identifying the speaker during
a multi-person conversation and distinguishing between male and female
speakers; we did not, however, record raw data from conversations."
Accordingly the synthesized stream contains only features: per-frame
voice-band level, dominant-speaker pitch, a pitch-stability feature
(assistive TTS speech is conspicuously monotone), and the overall sound
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import DataError
from repro.crew.conversation import TTS_LOUDNESS_DB

#: Speech attenuation per wall, dB (speech barely crosses the metal walls).
SPEECH_WALL_DB = 28.0
#: Near-field clamp for source distance, m.
MIN_SOURCE_DISTANCE_M = 0.3
#: Pitch of the screen-reader voice, Hz (synthesized, very stable).
TTS_PITCH_HZ = 150.0
#: Pitch-stability feature levels (1.0 = perfectly monotone).
HUMAN_STABILITY_MEAN, HUMAN_STABILITY_SIGMA = 0.40, 0.12
TTS_STABILITY_MEAN, TTS_STABILITY_SIGMA = 0.93, 0.03
#: Level below which no pitch is reported.
PITCH_FLOOR_DB = 40.0


@dataclass
class SpeechSources:
    """All speech sources in the habitat for one day.

    Human rows come straight from ground truth; each impaired astronaut
    using a screen reader contributes an extra machine source co-located
    with them.
    """

    xy: np.ndarray          # (sources, frames, 2)
    room: np.ndarray        # (sources, frames)
    speaking: np.ndarray    # (sources, frames) bool
    loudness: np.ndarray    # (sources, frames) float32, dB at 1 m
    pitch_hz: np.ndarray    # (sources,)
    is_machine: np.ndarray  # (sources,) bool

    def __post_init__(self) -> None:
        n_sources = self.xy.shape[0]
        for name in ("room", "speaking", "loudness"):
            if getattr(self, name).shape[0] != n_sources:
                raise DataError(f"{name} rows do not match sources")

    @classmethod
    def from_truth(cls, truth, day: int) -> "SpeechSources":
        """Collect the day's sources from a mission's ground truth."""
        xs, rooms, speaking, loudness, pitches, machine = [], [], [], [], [], []
        for astro in truth.roster.ids:
            trace = truth.trace(astro, day)
            profile = truth.roster.profile(astro)
            pos = np.stack([trace.x, trace.y], axis=1)
            xs.append(pos)
            rooms.append(trace.room)
            speaking.append(trace.speaking)
            loudness.append(trace.loudness)
            pitches.append(profile.voice_pitch_hz)
            machine.append(False)
            if trace.machine_speech.any():
                xs.append(pos)
                rooms.append(trace.room)
                speaking.append(trace.machine_speech)
                loudness.append(
                    np.where(trace.machine_speech, TTS_LOUDNESS_DB, 0.0).astype(np.float32)
                )
                pitches.append(TTS_PITCH_HZ)
                machine.append(True)
        return cls(
            xy=np.stack(xs),
            room=np.stack(rooms),
            speaking=np.stack(speaking),
            loudness=np.stack(loudness),
            pitch_hz=np.asarray(pitches, dtype=np.float64),
            is_machine=np.asarray(machine, dtype=bool),
        )


@dataclass
class MicrophoneOutput:
    """Per-frame microphone features for one badge-day."""

    voice_db: np.ndarray        # received voice-band level; -inf = silence
    dominant_pitch_hz: np.ndarray  # NaN when no usable voice signal
    pitch_stability: np.ndarray    # NaN when no usable voice signal
    sound_db: np.ndarray        # overall level including ambient noise


class MicrophoneModel:
    """Synthesizes microphone features at a badge's position."""

    def __init__(self, wall_db: float = SPEECH_WALL_DB):
        self.wall_db = float(wall_db)

    def synthesize_fleet(
        self,
        sources: SpeechSources,
        badge_xy: np.ndarray,
        badge_room: np.ndarray,
        active: np.ndarray,
        wall_matrix: np.ndarray,
        noise_floor_by_room: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> MicrophoneOutput:
        """Microphone features for a whole badge fleet in one call.

        The source-accumulation sweep runs once over the flattened
        ``badges x frames`` grid; the draws stay per badge, in the order
        pitch normals, stability normals, noise-floor normals, so a batch
        of one is bit-identical to the same badge's row in a larger
        batch.

        Args:
            sources: the day's speech sources.
            badge_xy: ``(badges, frames, 2)`` badge positions.
            badge_room: ``(badges, frames)`` badge room indices.
            active: ``(badges, frames)`` recording masks.
            wall_matrix: ``(rooms, rooms)`` wall counts.
            noise_floor_by_room: ``(rooms,)`` ambient floor per room, dB.
            rngs: one random stream per badge, aligned with axis 0.

        Returns:
            :class:`MicrophoneOutput` of ``(badges, frames)`` arrays.
        """
        n_badges, n = badge_room.shape
        total = n_badges * n
        xy_flat = np.ascontiguousarray(badge_xy).reshape(total, 2)
        room_flat = np.ascontiguousarray(badge_room).reshape(total)
        active_flat = np.ascontiguousarray(active).reshape(total)
        power = np.zeros(total, dtype=np.float64)
        best_level = np.full(total, -np.inf, dtype=np.float64)
        best_src = np.full(total, -1, dtype=np.int32)
        in_room = room_flat >= 0
        base = active & (badge_room >= 0)

        for s in range(sources.xy.shape[0]):
            speaking = (sources.speaking[s] & (sources.room[s] >= 0))[None, :] & base
            idx = np.flatnonzero(speaking.reshape(total))
            if idx.size == 0:
                continue
            fidx = idx % n
            dx = xy_flat[idx, 0] - sources.xy[s, fidx, 0]
            dy = xy_flat[idx, 1] - sources.xy[s, fidx, 1]
            d2 = np.maximum(
                dx * dx + dy * dy, MIN_SOURCE_DISTANCE_M * MIN_SOURCE_DISTANCE_M
            )
            walls = wall_matrix[room_flat[idx], sources.room[s, fidx]]
            level = (
                sources.loudness[s, fidx].astype(np.float64)
                - 10.0 * np.log10(d2)
                - walls * self.wall_db
            )
            power[idx] += 10.0 ** (level / 10.0)
            better = level > best_level[idx]
            best_level[idx[better]] = level[better]
            best_src[idx[better]] = s

        with np.errstate(divide="ignore"):
            voice_db = 10.0 * np.log10(power)
        voice_db[~active_flat] = np.nan

        pitch = np.full(total, np.nan, dtype=np.float32)
        stability = np.full(total, np.nan, dtype=np.float32)
        audible = active_flat & (best_level >= PITCH_FLOOR_DB)
        floor_db = np.where(
            in_room, noise_floor_by_room[np.maximum(room_flat, 0)], 30.0
        )
        for b in range(n_badges):
            rng = rngs[b]
            lo = b * n
            idx = np.flatnonzero(audible[lo:lo + n]) + lo
            if idx.size:
                src = best_src[idx]
                pitch[idx] = sources.pitch_hz[src] + rng.normal(0.0, 6.0, idx.size)
                machine = sources.is_machine[src]
                values = np.where(
                    machine,
                    rng.normal(TTS_STABILITY_MEAN, TTS_STABILITY_SIGMA, idx.size),
                    rng.normal(HUMAN_STABILITY_MEAN, HUMAN_STABILITY_SIGMA, idx.size),
                ).astype(np.float32)
                stability[idx] = np.clip(values, 0.0, 1.0)
            floor_db[lo:lo + n] += rng.normal(0.0, 1.0, n)

        total_power = power + 10.0 ** (floor_db / 10.0)
        sound_db = 10.0 * np.log10(total_power)
        sound_db[~active_flat] = np.nan

        return MicrophoneOutput(
            voice_db=voice_db.astype(np.float32).reshape(n_badges, n),
            dominant_pitch_hz=pitch.reshape(n_badges, n),
            pitch_stability=stability.reshape(n_badges, n),
            sound_db=sound_db.astype(np.float32).reshape(n_badges, n),
        )
