"""The benchmark's output matches BENCHMARK.json, and it refuses to run
without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import layers
from perfbench.run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_every_metric_the_code_can_print_is_declared_with_its_unit():
    assert END_TO_END == declared("end_to_end")
    assert layers.UNITS == declared("per_layer")


def run(trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_service",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def test_each_run_prints_its_metrics_by_name_with_unit_and_the_same_digest():
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run(trace)
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == declared(section)
        for name, unit in units.items():
            assert any(line.split()[:1] == [name] and f" {unit} " in line
                       for line in lines), name
        digests += [line.split()[1] for line in lines if line.split()[:1] == ["digest"]]
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(digests) == 2 and digests[0] == digests[1]


def test_without_the_program_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_mission",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
