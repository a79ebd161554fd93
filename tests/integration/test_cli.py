"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


@pytest.fixture(scope="module")
def tiny_args():
    return ["--days", "2", "--seed", "21", "--no-events"]


class TestCli:
    def test_run_prints_table(self, capsys, tiny_args):
        assert main(["run", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "company" in out and "GiB" in out

    def test_save_and_analyze_round_trip(self, capsys, tiny_args, tmp_path):
        path = str(tmp_path / "ds")
        assert main(["save", *tiny_args, path]) == 0
        saved = capsys.readouterr().out
        assert "badge-days" in saved

        assert main(["analyze", path]) == 0
        analyzed = capsys.readouterr().out
        assert "company" in analyzed

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])


class TestBadMissionInput:
    @pytest.mark.parametrize("bad", [
        ["--workers", "abc"],
        ["--workers", "0"],
        ["--cache", ""],
        ["--days", "1"],
    ], ids=["workers-abc", "workers-0", "empty-cache", "days-1"])
    def test_one_error_line_exit_2(self, capsys, bad):
        assert main(["run", "--days", "2", *bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1, err

    def test_busy_store_one_error_line_exit_75(self, capsys, tiny_args, tmp_path):
        """Another live run holds the store's lease: one line, and the
        EX_TEMPFAIL exit a full service queue gets too."""
        from repro.core.config import MissionConfig
        from repro.exec import CheckpointJournal, MissionCache

        cfg = MissionConfig(days=2, seed=21, events=None)
        with CheckpointJournal(MissionCache(tmp_path), cfg, owner="rival"):
            assert main(["run", *tiny_args, "--cache", str(tmp_path)]) == 75
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1, err
        assert "held by" in err


class TestDatasetErrors:
    def test_missing_dataset_one_error_line_exit_2(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: no saved dataset"), err
        assert err.count("\n") == 1, err

    def test_strict_quarantine_one_error_line_exit_2(self, capsys, tmp_path):
        import dataclasses

        from repro.analytics.dataset_io import save_sensing
        from repro.core.config import MissionConfig
        from repro.experiments.mission import run_mission

        cfg = MissionConfig(days=2, seed=21, frame_dt=5.0, events=None)
        sensing = run_mission(cfg).sensing
        summary = sensing.summaries[(0, 2)]
        # A badge-day at the wrong frame rate cannot be repaired.
        sensing.summaries[(0, 2)] = dataclasses.replace(
            summary, dt=summary.dt * 2)
        save_sensing(sensing, tmp_path)
        assert main(["analyze", str(tmp_path), "--gate", "strict"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1, err
        assert "quarantined by the quality gate" in err


class TestQualityCli:
    def test_corruption_campaign_reports(self, capsys):
        args = ["quality", "--days", "3", "--seed", "21", "--no-events",
                "--campaign-seed", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "data-corruption events" in out
        assert "data quality:" in out

    def test_clean_gate_all_ok(self, capsys):
        args = ["quality", "--days", "2", "--seed", "21", "--no-events",
                "--clean"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "coverage 100.0%" in out

    def test_json_dump_is_valid(self, capsys):
        import json

        args = ["quality", "--days", "2", "--seed", "21", "--no-events",
                "--clean", "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1])
        assert payload["coverage"] == 1.0

    def test_analyze_gate_off(self, capsys, tiny_args, tmp_path):
        path = str(tmp_path / "ds")
        assert main(["save", *tiny_args, path]) == 0
        capsys.readouterr()
        assert main(["analyze", path, "--gate", "off"]) == 0
        assert "company" in capsys.readouterr().out


class TestFaultsCli:
    def test_seed_sweep_archives_reports(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "reports"
        args = ["faults", "--days", "2", "--seed", "21", "--no-events",
                "--campaign-seed", "0", "1", "--out", str(out_dir), "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("campaign seed") >= 2
        for seed in (0, 1):
            payload = json.loads((out_dir / f"faults-seed-{seed}.json").read_text())
            assert payload["horizon_s"] == 2 * 86400.0
            assert "availability" in payload
        # Multi-seed --json dumps a seed-keyed map.
        tail = out[out.rindex("\n{"):]
        assert set(json.loads(tail)) == {"0", "1"}


#: ``--coverage`` or not: (extra args, text header, a key of the JSON
#: prediction and one entry under it, artifact file prefix).
RELIABILITY_MODELS = pytest.mark.parametrize(
    "model_args, header, key, prefix", [
        ([], "CTMC reliability prediction", ("availability", "relay"), "regime"),
        (["--coverage"], "coverage prediction", ("coverage", "mean"),
         "coverage-regime"),
    ], ids=["ctmc", "coverage"])


class TestReliabilityCli:
    @RELIABILITY_MODELS
    @pytest.mark.parametrize("days", ["3", "1"])
    def test_predict_prints_bands_and_json(self, capsys, model_args, header,
                                           key, prefix, days):
        import json

        args = ["reliability", "predict", *model_args, "--days", days,
                "--campaign-seed", "0", "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert header in out
        payload = json.loads(out[out.index("\n{"):])
        assert payload["confidence"] == 0.998
        assert key[1] in payload[key[0]]

    def test_validate_reference_campaign_passes(self, capsys):
        args = ["reliability", "validate", "--days", "2", "--campaign-seed", "0"]
        assert main(args) == 0  # exit 1 would mean a metric left its band
        out = capsys.readouterr().out
        assert "model validation" in out and "PASS" in out
        assert "fault campaign over" in out  # the empirical report too

    @RELIABILITY_MODELS
    @pytest.mark.parametrize("days", ["2", "1"])
    def test_search_emits_ranked_regimes(self, capsys, tmp_path, model_args,
                                         header, key, prefix, days):
        import json

        out_dir = tmp_path / "regimes"
        args = ["reliability", "search", *model_args, "--days", days,
                "--regimes", "8", "--top", "2", "--out", str(out_dir), "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "predicted-worst" in out
        for rank in (1, 2):
            payload = json.loads((out_dir / f"{prefix}-{rank}.json").read_text())
            assert payload["regime"]["rank"] == rank
            assert "prediction" in payload
        regimes = json.loads(out[out.rindex("\n["):])
        assert [r["rank"] for r in regimes] == [1, 2]


class TestClosedPipe:
    def test_reader_closing_early_exits_quietly(self):
        """``repro ... | head``: no BrokenPipeError traceback, exit 1."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "reliability", "predict",
             "--days", "14", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader is gone before the first write
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == 1
