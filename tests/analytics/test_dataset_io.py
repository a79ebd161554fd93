"""Tests for dataset persistence."""

import numpy as np
import pytest

from repro.analytics.dataset_io import ARTIFACT_NAME, load_sensing, save_sensing
from repro.analytics.reports import table1
from repro.analytics.speech import mission_speech_fraction
from repro.core.config import MissionConfig
from repro.core.errors import ConfigError, DataError
from repro.exec.integrity import write_artifact
from repro.experiments.mission import run_mission
from repro.faults import FaultCampaign


@pytest.fixture(scope="module")
def round_tripped(sensing, tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset") / "mission"
    save_sensing(sensing, path)
    return load_sensing(path)


@pytest.fixture(scope="module")
def faulted_cfg():
    plan = FaultCampaign.reference(days=2, seed=1).generate()
    return MissionConfig(days=2, frame_dt=5.0, fault_plan=plan)


class TestRoundTrip:
    def test_config_restored(self, round_tripped, mission_cfg, faulted_cfg,
                             tmp_path):
        assert round_tripped.cfg == mission_cfg
        # Every field comes back, the fault plan included.
        save_sensing(run_mission(faulted_cfg).sensing, tmp_path)
        assert load_sensing(tmp_path, quality="off").cfg == faulted_cfg

    def test_summaries_identical(self, round_tripped, sensing):
        assert set(round_tripped.summaries) == set(sensing.summaries)
        a = sensing.summary(1, 3)
        b = round_tripped.summary(1, 3)
        np.testing.assert_array_equal(a.room, b.room)
        np.testing.assert_array_equal(a.voice_db, b.voice_db)
        np.testing.assert_array_equal(a.worn, b.worn)
        assert a.bytes_recorded == b.bytes_recorded

    def test_true_room_preserved(self, round_tripped, sensing):
        a = sensing.summary(0, 2)
        b = round_tripped.summary(0, 2)
        np.testing.assert_array_equal(a.true_room, b.true_room)

    def test_pairwise_identical(self, round_tripped, sensing):
        day = sensing.days[0]
        for pair, contact in sensing.pairwise[day].ir_contact.items():
            np.testing.assert_array_equal(
                contact, round_tripped.pairwise[day].ir_contact[pair]
            )

    def test_analyses_agree(self, round_tripped, sensing):
        """The acid test: every analysis gives identical results on the
        reloaded dataset."""
        assert mission_speech_fraction(round_tripped) == mission_speech_fraction(sensing)
        assert str(table1(round_tripped)) == str(table1(sensing))

    def test_assignment_anomalies_preserved(self, round_tripped, sensing):
        day = sensing.cfg.events.badge_swap_day
        assert round_tripped.assignment.actual(day) == sensing.assignment.actual(day)

    def test_clean_load_gates_all_ok(self, round_tripped):
        """The default load routes through the quality gate: a clean
        store arrives with a report attached and every verdict ok."""
        assert round_tripped.quality is not None
        assert round_tripped.quality.all_ok
        assert round_tripped.quality.coverage() == 1.0


class TestIntegrityEnvelope:
    def save(self, sensing, tmp_path):
        path = tmp_path / "mission"
        save_sensing(sensing, path)
        return path

    def test_saved_as_single_artifact(self, sensing, tmp_path):
        path = self.save(sensing, tmp_path)
        assert [p.name for p in path.iterdir()] == [ARTIFACT_NAME]

    def test_bit_flip_detected_and_quarantined(self, sensing, tmp_path):
        path = self.save(sensing, tmp_path)
        artifact = path / ARTIFACT_NAME
        blob = bytearray(artifact.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        artifact.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_sensing(path)
        # The corrupt bytes are preserved for forensics, never deleted.
        assert not artifact.exists()
        quarantined = list((path / "quarantine").iterdir())
        assert len(quarantined) == 1

    def test_truncated_artifact_detected(self, sensing, tmp_path):
        path = self.save(sensing, tmp_path)
        artifact = path / ARTIFACT_NAME
        artifact.write_bytes(artifact.read_bytes()[:100])
        with pytest.raises(DataError):
            load_sensing(path)

    @pytest.mark.parametrize("layout", ["schema-1", "npz"])
    def test_older_dataset_refused_and_left_in_place(self, tmp_path, layout):
        if layout == "schema-1":
            write_artifact(tmp_path / ARTIFACT_NAME,
                           {"arrays": {}, "meta": {}}, schema=1)
        else:
            np.savez_compressed(tmp_path / "cfg.npz", x=np.zeros(3))
            (tmp_path / "meta.json").write_text("{}")
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(DataError, match="run `repro save` again"):
            load_sensing(tmp_path)
        # Not corrupt, so nothing is quarantined or moved.
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_quality_off_serves_raw_bytes(self, sensing, tmp_path):
        path = self.save(sensing, tmp_path)
        loaded = load_sensing(path, quality="off")
        assert loaded.quality is None

    def test_quality_strict_passes_clean_store(self, sensing, tmp_path):
        path = self.save(sensing, tmp_path)
        loaded = load_sensing(path, quality="strict")
        assert loaded.quality.all_ok

    def test_unknown_quality_mode_rejected(self, sensing, tmp_path):
        path = self.save(sensing, tmp_path)
        with pytest.raises(ConfigError):
            load_sensing(path, quality="maybe")
