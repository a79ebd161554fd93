"""Each output check passes real outputs and rejects tampered ones."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks
from perfbench.cold_mission import analyse
from perfbench.missions import paper_config


@pytest.fixture(scope="module")
def mission():
    from repro.experiments.mission import run_mission

    result = run_mission(paper_config(13), quality="gate")
    return result, analyse(result)


def test_a_real_mission_passes(mission):
    result, analyses = mission
    assert checks.check_mission(result, analyses) == []


def test_a_verdict_that_is_not_ok_is_rejected(mission):
    result, analyses = mission
    verdicts = list(result.quality.verdicts)
    verdicts[0] = dataclasses.replace(verdicts[0], verdict="repaired")
    tampered = dataclasses.replace(
        result, quality=dataclasses.replace(result.quality, verdicts=tuple(verdicts)))
    assert any("verdict" in f for f in checks.check_mission(tampered, analyses))


def test_poor_localization_is_rejected(mission):
    result, analyses = mission
    sensing = dataclasses.replace(result.sensing, summaries={
        key: dataclasses.replace(s, room=np.where(s.room >= 0, (s.room + 1) % 5, s.room)
                                 .astype(s.room.dtype))
        for key, s in result.sensing.summaries.items()})
    tampered = dataclasses.replace(result, sensing=sensing)
    assert any("room accuracy" in f for f in checks.check_mission(tampered, analyses))


def test_a_missing_figure_5_track_is_rejected(mission):
    result, analyses = mission
    timeline = dataclasses.replace(analyses["fig5"], tracks=analyses["fig5"].tracks[1:])
    tampered = {**analyses, "fig5": timeline}
    assert any("figure 5" in f for f in checks.check_mission(result, tampered))


def test_a_missing_table_row_is_rejected(mission):
    result, analyses = mission
    talking = dict(analyses["table1"].talking)
    talking.popitem()
    tampered = {**analyses, "table1": dataclasses.replace(analyses["table1"], talking=talking)}
    assert any("table I" in f for f in checks.check_mission(result, tampered))


def test_a_sweep_variant_must_not_simulate_the_crew(mission):
    result, _ = mission
    assert checks.check_variant(result, 27, simulations=0) == []
    assert any("simulate_mission" in f
               for f in checks.check_variant(result, 27, simulations=1))


def _job(**overrides):
    record = dict(state="done", job_id="j1", fingerprint="f1", result_digest="d1",
                  error=None)
    record.update(overrides)
    return SimpleNamespace(**record)


def _op(kind="new", quality="gate"):
    return SimpleNamespace(index=5, kind=kind, quality=quality)


PAYLOAD = {"fingerprint": "f1", "summaries": {(1, 2): np.arange(3)}, "pairwise": {}}


def test_a_fleet_submission_must_end_done_with_a_verified_result():
    assert checks.check_job(_op(), _job(), PAYLOAD, None) == []
    assert checks.check_job(_op(), _job(state="dead", error="boom"), None, None)
    assert checks.check_job(_op(), _job(), None, None)
    assert checks.check_job(_op(), _job(fingerprint="other"), PAYLOAD, None)


def test_a_duplicate_must_share_its_originals_job_and_digest():
    base = {"job_id": "j1", "result_digest": "d1", "content_digest": ""}
    assert checks.check_job(_op("duplicate"), _job(), PAYLOAD, base) == []
    assert checks.check_job(_op("duplicate"), _job(job_id="j2"), PAYLOAD, base)
    assert checks.check_job(_op("duplicate"), _job(result_digest="d2"), PAYLOAD, base)


def test_a_quality_variant_must_keep_its_originals_summaries():
    from perfbench.digest import digest

    base = {"job_id": "j0", "result_digest": "d0",
            "content_digest": digest((PAYLOAD["summaries"], PAYLOAD["pairwise"]))}
    assert checks.check_job(_op("variant", "off"), _job(), PAYLOAD, base) == []
    changed = {**PAYLOAD, "summaries": {(1, 2): np.arange(4)}}
    assert checks.check_job(_op("variant", "off"), _job(), changed, base)
