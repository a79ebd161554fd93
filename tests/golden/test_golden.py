"""The pipeline's outputs match the checked-in golden digests.

See :mod:`tests.golden.record` for what is pinned and how to re-record.
A failure names every key whose bytes moved.
"""

from __future__ import annotations

import re

import pytest

from repro.exec import hashing
from repro.experiments.mission import run_mission
from tests.golden.record import (
    FAULTS_MISSION,
    FLEET_MISSION,
    load,
    mission_digests,
    solve_digests,
    sweep_digests,
)

HINT = (
    "outputs may change only with a SCHEMA_VERSION bump "
    "(then re-record as tests/golden/record.py describes)"
)


@pytest.fixture(scope="module")
def golden() -> dict[str, list[str]]:
    return load()


@pytest.fixture(scope="module", params=["session", "faults", "fleet"])
def mission(request) -> tuple[str, dict[str, str]]:
    """``(name, observed digests)``; the session mission is the shared fixture."""
    name = request.param
    if name == "session":
        result = request.getfixturevalue("result")
    else:
        result = run_mission({"faults": FAULTS_MISSION, "fleet": FLEET_MISSION}[name])
    return name, mission_digests(name, result)


def _check(golden: dict, observed: dict, pattern: str) -> None:
    """Every golden key matching ``pattern`` is observed with an accepted value."""
    regex = re.compile(pattern)
    want = {k: v for k, v in golden.items() if regex.fullmatch(k)}
    got = {k: v for k, v in observed.items() if regex.fullmatch(k)}
    assert want, f"no golden keys match {pattern!r}"
    problems = [f"{k}: missing" for k in sorted(want.keys() - got.keys())]
    problems += [f"{k}: not in the golden file" for k in sorted(got.keys() - want.keys())]
    problems += [
        f"{k}: digest {got[k]} not recorded"
        for k in sorted(want.keys() & got.keys()) if got[k] not in want[k]
    ]
    assert not problems, (
        f"{len(problems)} golden mismatch(es); {HINT}:\n  " + "\n  ".join(problems[:20])
    )


class TestMissionGolden:
    def test_badge_days(self, golden, mission):
        """The mission senses exactly the recorded badge-days."""
        name, observed = mission
        regex = re.compile(rf"{name}/(day\d+/badge\d+)/\w+")

        def badge_days(keys) -> set[str]:
            return {m.group(1) for k in keys if (m := regex.fullmatch(k))}

        want = badge_days(golden)
        assert want, f"no golden badge-days for {name}"
        got = badge_days(observed)
        assert got == want, (
            f"missing {sorted(want - got)}, unrecorded {sorted(got - want)}; {HINT}")

    def test_truth(self, golden, mission):
        """Crew truth: every array of every astronaut-day."""
        name, observed = mission
        _check(golden, observed, rf"{name}/day\d+/truth/\w+/\w+")

    def test_summaries(self, golden, mission):
        name, observed = mission
        _check(golden, observed, rf"{name}/day\d+/badge\d+/\w+")

    def test_pairwise(self, golden, mission):
        name, observed = mission
        _check(golden, observed, rf"{name}/day\d+/(subghz_rssi|ir_contact)/\d+-\d+")

    def test_sdcard_and_fingerprints(self, golden, mission):
        name, observed = mission
        _check(golden, observed,
               rf"{name}/(sdcard_total_bytes|truth_fingerprint|sensing_fingerprint)")


class TestSchemaGolden:
    def test_schema_version(self, golden):
        assert golden["schema_version"] == [str(hashing.SCHEMA_VERSION)], (
            "SCHEMA_VERSION moved: re-record as tests/golden/record.py describes")


class TestSweepGolden:
    @pytest.fixture(scope="class")
    def sweeps(self) -> dict[str, str]:
        return sweep_digests()

    @pytest.mark.parametrize("kind", ["ctmc", "coverage"])
    def test_top3_regimes(self, golden, sweeps, kind):
        _check(golden, sweeps, rf"sweep/{kind}/rank\d/\w+")


class TestLocalizationGolden:
    def test_solve(self, golden):
        """The position solve for 1-5 beacons per room, with and without
        the refinement, byte for byte."""
        _check(golden, solve_digests(), r"localization/k\d/refine[01]")
