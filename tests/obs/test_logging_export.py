"""Tests for structured logging and the export layer."""

import json

import pytest

from repro import obs
from repro.obs import export, metrics
from repro.obs import logging as obs_logging


@pytest.fixture()
def on():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


class TestLogging:
    def test_records_event_and_fields(self, on):
        log = obs.get_logger("test.mod")
        log.info("badge-seen", badge=3, rssi=-61.5)
        (r,) = obs_logging.buffer.records
        assert r.logger == "test.mod"
        assert r.level == "info"
        assert r.event == "badge-seen"
        assert r.fields == {"badge": 3, "rssi": -61.5}

    def test_get_logger_cached(self, on):
        assert obs.get_logger("same") is obs.get_logger("same")

    def test_min_level_filters(self, on):
        obs_logging.buffer.min_level = "warning"
        log = obs.get_logger("test.lvl")
        log.debug("quiet")
        log.info("quiet-too")
        log.error("loud")
        assert [r.event for r in obs_logging.buffer.records] == ["loud"]

    def test_noop_when_disabled(self):
        obs.reset()
        obs.get_logger("test.off").error("nothing")
        assert obs_logging.buffer.records == []

    def test_sim_time_from_clock_and_field(self, on):
        obs.set_sim_clock(lambda: 5.0)
        log = obs.get_logger("test.time")
        log.info("clocked")
        log.info("explicit", sim_time=90_000.0)
        clocked, explicit = obs_logging.buffer.records
        assert clocked.sim_time == 5.0
        assert explicit.sim_time == 90_000.0
        assert "sim_time" not in explicit.fields

    def test_format_sim_time(self):
        assert obs_logging.format_sim_time(None) == "--"
        assert obs_logging.format_sim_time(0.0) == "day 01 00:00:00"
        # 1 day + 2h 03m 04s into the mission
        t = 86_400.0 + 2 * 3600 + 3 * 60 + 4
        assert obs_logging.format_sim_time(t) == "day 02 02:03:04"

    def test_matching_and_at_level(self, on):
        log = obs.get_logger("test.q")
        log.warning("link-partitioned", src="a")
        log.info("link-healed", src="a")
        assert len(obs_logging.buffer.matching("link-")) == 2
        assert [r.level for r in obs_logging.buffer.records] == ["warning", "info"]


class TestExport:
    def test_to_dict_has_all_sections(self, on):
        metrics.counter("x.count").inc()
        with obs.span("x.stage"):
            obs.get_logger("x").info("hello")
        snap = export.to_dict()
        assert set(snap) == {"metrics", "spans", "span_breakdown", "logs"}
        assert snap["metrics"]["x.count"]["series"][0]["value"] == 1.0
        assert snap["spans"][0]["name"] == "x.stage"
        assert snap["logs"][0]["event"] == "hello"

    def test_json_round_trip(self, on):
        metrics.counter("rt.count").inc(3.0, kind="k")
        metrics.histogram("rt.hist").observe(1.5)
        with obs.span("rt.span", day=1):
            pass
        obs.get_logger("rt").warning("evt", n=2)
        text = export.to_json()
        assert export.from_json(text) == json.loads(text)
        restored = export.from_json(text)
        assert restored["metrics"]["rt.count"]["series"][0]["labels"] == {"kind": "k"}
        assert restored["span_breakdown"]["rt.span"]["count"] == 1

    def test_text_report_mentions_everything(self, on):
        metrics.counter("bus.sent").inc(kind="alert")
        with obs.span("mission"):
            pass
        obs.get_logger("bus").warning("node-crashed", node="earth")
        report = export.to_text()
        assert "Stage breakdown" in report
        assert "mission" in report
        assert "bus.sent" in report
        assert "node-crashed" in report

    def test_empty_report_renders(self, on):
        report = export.to_text()
        assert "(no spans recorded)" in report
        assert "(no metrics recorded)" in report
