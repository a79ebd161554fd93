"""End-to-end telemetry: an instrumented 2-day mission plus bus accounting.

The slow full-mission cases are marked ``tier2`` so a fast CI lane can
deselect them with ``-m "not tier2"``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import MissionConfig, obs, run_mission
from repro.core.engine import Simulator
from repro.obs import export
from repro.support.bus import Network, Node


@pytest.fixture(scope="module")
def telemetry_cfg() -> MissionConfig:
    return MissionConfig(days=2, seed=23, events=None)


@pytest.fixture(scope="module")
def instrumented(telemetry_cfg):
    """One telemetry-enabled 2-day mission; yields (result, snapshot)."""
    obs.reset()
    obs.enable()
    try:
        result = run_mission(telemetry_cfg)
    finally:
        obs.reset()
    return result


@pytest.mark.tier2
class TestInstrumentedMission:
    def test_mission_span_with_stage_children(self, instrumented):
        snap = instrumented.telemetry
        assert snap is not None
        spans = snap["spans"]
        missions = [s for s in spans if s["name"] == "mission"]
        assert len(missions) == 1
        mission = missions[0]
        assert mission["wall_s"] > 0

        def children(parent):
            return {s["name"] for s in spans if s["parent_id"] == parent["span_id"]}

        assert "crew.simulate_mission" in children(mission)   # crew-sim stage
        assert "exec.compute_day" in children(mission)        # one day's work
        for day in (s for s in spans if s["name"] == "exec.compute_day"):
            assert children(day) >= {"sensing.day", "localization.day"}

    def test_badge_day_spans_nested_under_sensing(self, instrumented):
        spans = instrumented.telemetry["spans"]
        by_id = {s["span_id"]: s for s in spans}
        badge_days = [s for s in spans if s["name"] == "sensing.badge_day"]
        assert badge_days, "expected one span per badge-day"
        for s in badge_days:
            assert by_id[s["parent_id"]]["name"] == "sensing.day"

    def test_breakdown_covers_stages(self, instrumented):
        breakdown = instrumented.telemetry["span_breakdown"]
        for stage in ("mission", "crew.day", "sensing.badge_day",
                      "localization.day"):
            assert breakdown[stage]["count"] >= 1
            assert breakdown[stage]["wall_s"] > 0.0

    def test_pipeline_metrics_recorded(self, instrumented):
        metric_snap = instrumented.telemetry["metrics"]
        days = [s for s in metric_snap["sensing.badge_days"]["series"]]
        assert sum(s["value"] for s in days) >= 1
        loc = metric_snap["localization.known_fraction"]["series"][0]
        assert loc["count"] >= 1
        assert 0.0 <= loc["p50"] <= 1.0

    def test_telemetry_report_renders(self, instrumented):
        report = instrumented.to_text()
        assert "mission" in report
        assert "Stage breakdown" in report

    def test_snapshot_json_round_trips(self, instrumented):
        text = json.dumps(instrumented.telemetry, sort_keys=True, default=float)
        assert json.loads(text) == json.loads(text)
        restored = json.loads(text)
        assert restored["span_breakdown"]["mission"]["count"] == 1

    def test_disabled_run_emits_nothing(self, telemetry_cfg):
        obs.reset()  # telemetry off
        result = run_mission(telemetry_cfg)
        assert result.telemetry is None
        assert result.to_dict()["telemetry"] is None
        assert obs.tracing.collector.spans == []
        assert obs.metrics.registry.names() == []
        assert obs.logging.buffer.records == []
        # The run itself still produced the dataset.
        assert result.sensing.summaries


class _Chatter(Node):
    def handle_default(self, message):
        pass


class TestBusAccounting:
    def test_delivered_plus_dropped_equals_sent(self):
        """Exact bus accounting under loss, partition, and crashes."""
        obs.reset()
        obs.enable()
        sim = Simulator()
        network = Network(sim, loss_prob=0.2, rng=np.random.default_rng(5))
        nodes = [_Chatter(name, sim) for name in ("hab", "earth", "airlock")]
        for node in nodes:
            network.register(node)
        obs.set_sim_clock(lambda: sim.now)

        for i in range(40):
            nodes[0].send("earth", "status", i)
            nodes[1].send("hab", "command", i)
        network.partition("hab", "earth")
        network.crash("airlock")
        for i in range(40):
            nodes[0].send("earth", "status", i)   # partitioned
            nodes[2].send("hab", "telemetry", i)  # src crashed
            nodes[0].send("airlock", "ping", i)   # dst crashed (or lost)
        sim.run()

        assert network.in_flight() == 0
        assert network.delivered + network.dropped == network.sent
        assert network.sent == 200

        # The same invariant holds metric-side, per kind.
        sent = obs.metrics.registry.get("bus.sent")
        delivered = obs.metrics.registry.get("bus.delivered")
        dropped = obs.metrics.registry.get("bus.dropped")
        for kind in ("status", "command", "telemetry", "ping"):
            kind_dropped = sum(
                s["value"]
                for s in dropped.snapshot()["series"]
                if s["labels"]["kind"] == kind
            )
            assert delivered.value(kind=kind) + kind_dropped == sent.value(kind=kind)

        # Export round-trips through JSON.
        snap = export.from_json(export.to_json())
        assert snap["metrics"]["bus.sent"]["series"]
        # Fault injections landed in the structured log with sim time.
        crash_logs = obs.logging.buffer.matching("node-crashed")
        assert crash_logs and crash_logs[0].sim_time is not None
        obs.reset()
