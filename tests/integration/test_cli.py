"""Tests for the command-line interface."""

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
        ["--resume"],
        ["--days", "1"],
    ], ids=["workers-abc", "workers-0", "resume-no-checkpoint", "days-1"])
    def test_one_error_line_exit_2(self, capsys, bad):
        assert main(["run", "--days", "2", *bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1, err


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


class TestReliabilityCli:
    def test_predict_prints_bands_and_json(self, capsys):
        import json

        args = ["reliability", "predict", "--days", "3",
                "--campaign-seed", "0", "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "CTMC reliability prediction" in out
        payload = json.loads(out[out.index("\n{"):])
        assert payload["confidence"] == 0.998
        assert "relay" in payload["availability"]

    def test_validate_reference_campaign_passes(self, capsys):
        args = ["reliability", "validate", "--days", "2", "--campaign-seed", "0"]
        assert main(args) == 0  # exit 1 would mean a metric left its band
        out = capsys.readouterr().out
        assert "model validation" in out and "PASS" in out
        assert "fault campaign over" in out  # the empirical report too

    def test_search_emits_ranked_regimes(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "regimes"
        args = ["reliability", "search", "--days", "2", "--regimes", "8",
                "--top", "2", "--out", str(out_dir), "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "predicted-worst" in out
        for rank in (1, 2):
            payload = json.loads((out_dir / f"regime-{rank}.json").read_text())
            assert payload["regime"]["rank"] == rank
            assert "prediction" in payload
        regimes = json.loads(out[out.rindex("\n["):])
        assert [r["rank"] for r in regimes] == [1, 2]
