"""MissionCache behaviour: hits, misses, invalidation, robustness."""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.core.config import ExecutionConfig, MissionConfig
from repro.exec.cache import MissionCache
from repro.exec.hashing import SCHEMA_VERSION
from repro.experiments.mission import run_mission


@pytest.fixture(scope="module")
def small_cfg():
    # days=2 -> a single instrumented day; frame_dt=5 keeps it quick.
    return MissionConfig(days=2, seed=9, frame_dt=5.0, events=None)


def _summaries_bytes(result):
    out = {}
    for key, s in sorted(result.sensing.summaries.items()):
        out[key] = (s.active.tobytes(), s.room.tobytes(), s.x.tobytes(),
                    s.voice_db.tobytes(), s.bytes_recorded, s.n_sync_events)
    return out


class TestRunMissionCaching:
    def test_cold_then_warm(self, small_cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        cold = run_mission(small_cfg, execution=execution)
        assert cold.cache_stats == {
            "hits": {"truth": 0, "day": 0},
            "misses": {"truth": 1, "day": 1},
            "quarantined": {"truth": 0, "day": 0},
            "checkpoint": {"recorded": 1, "resumed_days": []},
        }
        warm = run_mission(small_cfg, execution=execution)
        assert warm.cache_stats == {
            "hits": {"truth": 1, "day": 1},
            "misses": {"truth": 0, "day": 0},
            "quarantined": {"truth": 0, "day": 0},
            "checkpoint": {"recorded": 0, "resumed_days": [2]},
        }
        assert _summaries_bytes(cold) == _summaries_bytes(warm)
        assert cold.sdcard.total_gib() == warm.sdcard.total_gib()

    @pytest.mark.parametrize("change", [
        {"seed": 10},
        {"frame_dt": 7.0},
    ])
    def test_truth_field_change_invalidates_everything(
        self, small_cfg, tmp_path, change
    ):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        run_mission(small_cfg, execution=execution)
        varied = run_mission(
            dataclasses.replace(small_cfg, **change), execution=execution
        )
        assert varied.cache_stats["hits"] == {"truth": 0, "day": 0}

    def test_sensing_change_reuses_truth(self, small_cfg, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        base = run_mission(small_cfg, execution=execution)
        varied_cfg = dataclasses.replace(
            small_cfg, wear_compliance_start=0.4, wear_compliance_end=0.4
        )
        varied = run_mission(varied_cfg, execution=execution)
        assert varied.cache_stats["hits"] == {"truth": 1, "day": 0}
        assert varied.cache_stats["misses"]["day"] == 1
        # The rebound truth carries the *current* config.
        assert varied.truth.cfg == varied_cfg
        # And the sensing actually changed (different wear compliance).
        assert _summaries_bytes(base) != _summaries_bytes(varied)

    def test_custom_stack_bypasses_day_cache(self, small_cfg, tmp_path):
        from repro.badges.pipeline import SensingModels
        from repro.crew.behavior import simulate_mission

        truth = simulate_mission(small_cfg)
        models = SensingModels.default(small_cfg, truth.plan)
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        result = run_mission(small_cfg, models=models, execution=execution)
        # Truth stage still caches; day summaries must not, because the
        # override is not part of the cache key.
        assert result.cache_stats["hits"]["day"] == 0
        assert result.cache_stats["misses"]["day"] == 0
        again = run_mission(small_cfg, models=models, execution=execution)
        assert again.cache_stats["hits"]["day"] == 0


class TestCacheRobustness:
    def test_corrupt_artifact_is_a_miss_and_quarantined(self, small_cfg, tmp_path):
        cache = MissionCache(tmp_path)
        path = cache.truth_path(small_cfg)
        path.write_bytes(b"not a pickle")
        assert cache.load_truth(small_cfg) is None
        assert cache.misses["truth"] == 1
        assert cache.quarantined["truth"] == 1
        # Never deleted: the evidence moves to quarantine/.
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_schema_mismatch_is_a_miss(self, small_cfg, tmp_path):
        cache = MissionCache(tmp_path)
        path = cache.truth_path(small_cfg)
        path.write_bytes(
            pickle.dumps(("repro.exec.artifact", SCHEMA_VERSION + 1, "0" * 32, b""))
        )
        assert cache.load_truth(small_cfg) is None
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_bit_flip_detected_quarantined_and_recomputed(self, small_cfg, tmp_path):
        """The acceptance scenario: a flipped bit is never served."""
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        cold = run_mission(small_cfg, execution=execution)
        day_path = MissionCache(tmp_path).day_path(small_cfg, 2)
        blob = bytearray(day_path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        day_path.write_bytes(bytes(blob))
        rerun = run_mission(small_cfg, execution=execution)
        assert rerun.cache_stats["quarantined"]["day"] == 1
        assert rerun.cache_stats["misses"]["day"] == 1
        assert rerun.cache_stats["hits"]["day"] == 0
        assert (tmp_path / "quarantine" / day_path.name).exists()
        # The day was recomputed, not served corrupt: results match.
        assert _summaries_bytes(cold) == _summaries_bytes(rerun)
        # And the recomputed artifact is valid again on the next run.
        warm = run_mission(small_cfg, execution=execution)
        assert warm.cache_stats["hits"]["day"] == 1

    def test_stale_tmp_files_swept_on_init(self, small_cfg, tmp_path):
        """A writer killed between mkstemp and os.replace strands *.tmp
        files; cache startup sweeps them (satellite fix)."""
        subdir = tmp_path / "sensing-deadbeef"
        subdir.mkdir()
        stale = [tmp_path / "truth-x.pkl.abctmp.tmp", subdir / "day02.pkl.xyz.tmp"]
        for path in stale:
            path.write_bytes(b"partial write")
        cache = MissionCache(tmp_path)
        for path in stale:
            assert not path.exists()
        # Real artifacts survive the sweep.
        from repro.crew.behavior import simulate_mission

        truth = simulate_mission(small_cfg)
        cache.store_truth(small_cfg, truth)
        again = MissionCache(tmp_path)
        assert again.load_truth(small_cfg) is not None

    def test_store_survives_concurrent_cache_startup(self, small_cfg, tmp_path,
                                                      monkeypatch):
        """Regression: two concurrent writers must both succeed.

        The race: writer A is between mkstemp and os.replace when
        writer B's cache startup sweep runs; the sweep used to unlink
        A's live temp file, failing A's store with quarantine noise.
        """
        import os

        from repro.crew.behavior import simulate_mission
        from repro.exec import integrity

        cache = MissionCache(tmp_path)
        truth = simulate_mission(small_cfg)
        real_replace = os.replace

        def racing_replace(src, dst):
            MissionCache(tmp_path)  # B starts up mid-write and sweeps
            return real_replace(src, dst)

        monkeypatch.setattr(integrity.os, "replace", racing_replace)
        cache.store_truth(small_cfg, truth)  # A must still land its write
        monkeypatch.undo()
        fresh = MissionCache(tmp_path)
        assert fresh.load_truth(small_cfg) is not None
        assert fresh.stats()["quarantined"]["truth"] == 0
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_second_cache_on_a_root_does_not_walk_it(self, tmp_path, monkeypatch):
        """The startup sweep walks the whole store, so a process runs it
        once per root: a long-lived service opens a cache per job."""
        MissionCache(tmp_path)
        walked = []
        real_rglob = Path.rglob

        def rglob(self, *args, **kwargs):
            walked.append(self)
            return real_rglob(self, *args, **kwargs)

        monkeypatch.setattr(Path, "rglob", rglob)
        MissionCache(tmp_path)
        assert walked == []
        MissionCache(tmp_path / "other")
        assert walked == [tmp_path / "other"]

    def test_store_load_round_trip(self, small_cfg, tmp_path):
        from repro.crew.behavior import simulate_mission

        cache = MissionCache(tmp_path)
        truth = simulate_mission(small_cfg)
        cache.store_truth(small_cfg, truth)
        loaded = cache.load_truth(small_cfg)
        assert loaded is not None
        assert loaded.roster.ids == truth.roster.ids
        assert cache.stats() == {
            "hits": {"truth": 1, "day": 0},
            "misses": {"truth": 0, "day": 0},
            "quarantined": {"truth": 0, "day": 0},
        }
