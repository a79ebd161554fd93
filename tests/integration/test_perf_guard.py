"""The perf guard (``benchmarks/perf_guard.py``) reads its stages from the
``repro.obs`` span tree and names the stage that broke its budget."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import perf_guard

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def budget():
    return json.loads(perf_guard.BUDGET_PATH.read_text())


class TestStages:
    def test_every_budgeted_stage_is_a_span_of_the_mission(self, budget):
        seconds = perf_guard.stage_seconds(budget["per_calibration"], rounds=1)
        assert set(seconds) == set(budget["per_calibration"])
        assert all(s > 0.0 for s in seconds.values())

    def test_unknown_stage_is_named(self, monkeypatch):
        from repro.experiments import mission

        class Result:
            telemetry = {"span_breakdown": {"mission": {"wall_s": 1.0}}}

        monkeypatch.setattr(mission, "run_mission", lambda cfg: Result())
        with pytest.raises(LookupError, match="span crew.nowhere "):
            perf_guard.stage_seconds(["mission", "crew.nowhere"], rounds=1)


class TestJudge:
    SLOW = "crew.movement"

    def seconds(self, budget, calibration_s):
        """Every stage on its budget, except SLOW at 1.3x its budget."""
        return {
            stage: per_calibration * calibration_s * (1.3 if stage == self.SLOW else 1.0)
            for stage, per_calibration in budget["per_calibration"].items()
        }

    def test_marks_exactly_the_stage_over_its_limit(self, budget):
        report = perf_guard.judge(self.seconds(budget, 0.4), 0.4, budget)
        failed = [stage for stage, s in report["stages"].items() if not s["ok"]]
        assert failed == [self.SLOW]
        assert not report["ok"]
        slow = report["stages"][self.SLOW]
        assert slow["limit_per_calibration"] == round(
            budget["per_calibration"][self.SLOW] * (1.0 + budget["headroom"]), 3)

    def test_failure_line_names_the_span(self, budget, monkeypatch, capsys):
        monkeypatch.setattr(perf_guard, "calibration_seconds", lambda: 0.4)
        monkeypatch.setattr(perf_guard, "stage_seconds",
                            lambda stages: self.seconds(budget, 0.4))
        assert perf_guard.main() == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["stages"][self.SLOW]["ok"] is False
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"PERF REGRESSION: {self.SLOW} is ")


def test_calibration_imports_without_src():
    """perfbench times the calibration in a child interpreter that has
    neither ``src`` nor ``repro`` on its path."""
    from perfbench.host import _CALIBRATE

    child = _CALIBRATE.replace("calibration_seconds()", "calibration_seconds(rounds=1)")
    assert child != _CALIBRATE
    # Block an installed ``repro`` too, so a module-level import fails here.
    child = "import sys; sys.modules['repro'] = None; " + child
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", child], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert float(done.stdout.strip().splitlines()[-1]) > 0.0
