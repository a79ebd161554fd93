"""Conversation model: who speaks, when, and how loudly.

Conversations happen between co-located astronauts and follow the talk
regime of the ongoing activity (meals are chatty, the consolation
meeting was "clearly quieter than ... lunch").  Within a conversation
burst, speakers alternate in turns drawn by talkativeness — this is what
makes C's voice "dominate during meetings".

The model also emits the assistive screen-reader (TTS) audio that
accompanied impaired astronaut A's office work; the paper had to teach
its conversation analysis "to not be misled by a computer program
reading out texts for A", and so does ours.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.crew.astronaut import Profile
from repro.crew.tasks import SILENT_ACTIVITIES, Activity, talk_regime

#: TTS regime for the impaired astronaut's screen reader.
TTS_DUTY = 0.35
TTS_BURST_MEAN_S = 22.0
TTS_LOUDNESS_DB = 58.0
#: Rooms where the screen reader is in use.
TTS_ROOMS = ("office", "biolab")

#: Ignore co-location segments shorter than this (people passing through).
MIN_SEGMENT_S = 5.0

#: Speaker turn length bounds within a burst, seconds.
TURN_MIN_S, TURN_MAX_S = 2.0, 9.0

_SILENT_CODES = [int(a) for a in SILENT_ACTIVITIES]


@dataclass
class SpeechArrays:
    """Per-crew speech output for one day."""

    speaking: np.ndarray        # (crew, frames) bool
    loudness: np.ndarray        # (crew, frames) float32, dB SPL at 1 m
    machine_speech: np.ndarray  # (crew, frames) bool


class ConversationModel:
    """Generates speech from co-location and activity ground truth."""

    def __init__(self, profiles: tuple[Profile, ...], dt: float = 1.0):
        self.profiles = profiles
        self.dt = float(dt)
        #: ``(mean talkativeness, speaker cdf)`` by member tuple.
        self._groups: dict[tuple[int, ...], tuple[float, list[float]]] = {}

    def generate(
        self,
        rooms: np.ndarray,
        activities: np.ndarray,
        rng: np.random.Generator,
        talk_factor: float = 1.0,
    ) -> SpeechArrays:
        """Build speech arrays for one day.

        Args:
            rooms: ``(crew, frames)`` ground-truth room indices.
            activities: ``(crew, frames)`` activity codes.
            rng: this component's random stream.
            talk_factor: scripted day-level mood multiplier on talk duty
                (the paper's Fig. 6 decline and the famine/reprimand
                collapse enter here).

        Returns:
            :class:`SpeechArrays` for the whole crew.
        """
        n_crew, n_frames = rooms.shape
        out = SpeechArrays(
            speaking=np.zeros((n_crew, n_frames), dtype=bool),
            loudness=np.zeros((n_crew, n_frames), dtype=np.float32),
            machine_speech=np.zeros((n_crew, n_frames), dtype=bool),
        )
        segments = [(s, e) for s, e in self._segments(rooms, activities)
                    if (e - s) * self.dt >= MIN_SEGMENT_S]
        # Each kept segment's first frame, gathered once: its rooms,
        # activities and who may talk, as lists.
        starts = [s for s, _ in segments]
        act_starts = activities[:, starts]
        columns = zip(rooms[:, starts].T.tolist(), act_starts.T.tolist(),
                      (~np.isin(act_starts, _SILENT_CODES)).T.tolist())
        turns = array("d")
        for (s, e), (room_now, act_now, talks) in zip(segments, columns):
            self._fill_segment(turns, room_now, act_now, talks, s, e, rng, talk_factor)
        _write_turns(out, turns)
        self._fill_tts(out, rooms, activities, rng)
        return out

    # -- internals -------------------------------------------------------

    def _segments(self, rooms: np.ndarray, activities: np.ndarray | None = None) -> list[tuple[int, int]]:
        """Frame ranges over which rooms (and activities) are constant.

        Activity changes split segments too: six people switching from
        TRANSIT to MEAL the moment they reach the kitchen table must
        start a fresh (talkative) segment even though no room changed.
        """
        n_frames = rooms.shape[1]
        if n_frames == 0:
            return []
        changed = (rooms[:, 1:] != rooms[:, :-1]).any(axis=0)
        if activities is not None:
            changed |= (activities[:, 1:] != activities[:, :-1]).any(axis=0)
        boundaries = np.concatenate([[0], np.flatnonzero(changed) + 1, [n_frames]]).tolist()
        return list(zip(boundaries[:-1], boundaries[1:]))

    def _fill_segment(
        self,
        turns: array,
        room_now: list[int],
        act_now: list[int],
        talks: list[bool],
        s: int,
        e: int,
        rng: np.random.Generator,
        talk_factor: float,
    ) -> None:
        """Run a burst process for every room holding two or more
        talkers at the segment's first frame, rooms in ascending index
        and each room's members in crew order (DESIGN.md §13)."""
        groups: dict[int, list[int]] = {}
        for member, (room, may_talk) in enumerate(zip(room_now, talks)):
            if may_talk and room >= 0:
                groups.setdefault(room, []).append(member)
        for room in sorted(groups):
            members = groups[room]
            if len(members) < 2:
                continue
            duty, burst_mean, loud_db = talk_regime(Activity(act_now[members[0]]))
            mean_talk, cdf = self._group(tuple(members))
            # Chattier groups chat more: scale duty by mean talkativeness
            # (a group around C barely stops talking).
            duty = min(0.95, duty * talk_factor * (0.55 + 0.9 * mean_talk))
            if duty <= 0.0:
                continue
            self._burst_process(turns, members, cdf, s, e, duty, burst_mean, loud_db, rng)

    def _group(self, members: tuple[int, ...]) -> tuple[float, list[float]]:
        """``(mean talkativeness, speaker cdf)`` of one group, computed once.

        Both keep numpy's reductions: a Python ``sum`` adds in another
        order and can move the last bit of the duty, and with it every
        later draw of the day.
        """
        stats = self._groups.get(members)
        if stats is None:
            talk = [self.profiles[m].talkativeness for m in members]
            weights = np.array(talk)
            weights = weights / weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            stats = self._groups[members] = (float(np.mean(talk)), cdf.tolist())
        return stats

    def _burst_process(
        self,
        turns: array,
        speakers: list[int],
        cdf: list[float],
        s: int,
        e: int,
        duty: float,
        burst_mean_s: float,
        loud_db: float,
        rng: np.random.Generator,
    ) -> None:
        """Alternating burst/gap process with talkativeness-weighted turns.

        Turn lengths and speakers are scalar draws that take the same
        numbers ``rng.uniform`` and ``rng.choice(n, p=weights)`` take
        (DESIGN.md §13, the draw-order contract).  Each turn is appended
        to ``turns`` as ``speaker, first frame, end frame, loudness``.
        """
        dt = self.dt
        gap_mean_s = burst_mean_s * (1.0 - duty) / max(duty, 1e-6)
        t = s
        # Randomize the phase: start mid-gap half the time.
        if rng.random() > duty:
            t += int(rng.exponential(gap_mean_s) / dt)
        while t < e:
            burst_frames = max(1, int(rng.exponential(burst_mean_s) / dt))
            burst_end = min(t + burst_frames, e)
            while t < burst_end:
                turn_s = TURN_MIN_S + (TURN_MAX_S - TURN_MIN_S) * rng.random()
                turn_end = min(t + max(1, int(turn_s / dt)), burst_end)
                speaker = speakers[bisect_right(cdf, rng.random())]
                turns.extend((speaker, t, turn_end, loud_db + rng.normal(0.0, 1.5)))
                t = turn_end
            t = burst_end + max(1, int(rng.exponential(gap_mean_s) / dt))

    def _fill_tts(
        self,
        out: SpeechArrays,
        rooms: np.ndarray,
        activities: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Screen-reader audio accompanying impaired astronauts' work."""
        from repro.habitat.rooms import ROOM_NAMES  # index order matches plan

        tts_room_idx = [ROOM_NAMES.index(r) for r in TTS_ROOMS]
        for row, profile in enumerate(self.profiles):
            if not profile.impaired:
                continue
            eligible = np.isin(rooms[row], tts_room_idx) & (
                activities[row] == int(Activity.WORK)
            )
            if not eligible.any():
                continue
            gap_mean_s = TTS_BURST_MEAN_S * (1.0 - TTS_DUTY) / TTS_DUTY
            n = rooms.shape[1]
            t = int(rng.exponential(gap_mean_s) / self.dt)
            while t < n:
                burst = max(1, int(rng.exponential(TTS_BURST_MEAN_S) / self.dt))
                end = min(t + burst, n)
                window = eligible[t:end]
                out.machine_speech[row, t:end] = window
                t = end + max(1, int(rng.exponential(gap_mean_s) / self.dt))


def _write_turns(out: SpeechArrays, turns: array) -> None:
    """Write a day's turns into ``speaking`` and ``loudness`` in one pass.

    ``turns`` holds ``(speaker, first frame, end frame, loudness)`` per
    turn as float64 quadruples, exact for the integers.  One pass equals
    writing slice by slice because no cell is written twice: segments
    are disjoint, a member belongs to one room group per segment, and a
    burst process's turns advance.  Each float64 loudness is cast to
    float32 as a slice write casts it.
    """
    if not turns:
        return
    speaker, start, end, loud = np.frombuffer(turns).reshape(-1, 4).T
    count = (end - start).astype(np.int64)
    first = (speaker * out.speaking.shape[1] + start).astype(np.int64)
    cells = np.repeat(first - (np.cumsum(count) - count), count)
    cells += np.arange(cells.size)
    np.put(out.speaking, cells, True)
    np.put(out.loudness, cells, np.repeat(loud.astype(np.float32), count))
