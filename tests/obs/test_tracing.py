"""Tests for span tracing: nesting, durations, disabled-mode no-ops."""

import pytest

from repro import obs
from repro.obs import tracing


@pytest.fixture()
def on():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


class TestSpans:
    def test_span_records_wall_duration(self, on):
        with obs.span("work"):
            pass
        (s,) = tracing.collector.by_name("work")
        assert s.wall_s is not None and s.wall_s >= 0.0

    def test_nesting_sets_parent(self, on):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert obs.current_span() is inner
            assert obs.current_span() is outer
        (inner,) = tracing.collector.by_name("inner")
        (outer,) = tracing.collector.by_name("outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_roots(self, on):
        with obs.span("a"):
            with obs.span("b"):
                pass
        with obs.span("c"):
            pass
        assert {s.name for s in tracing.collector.roots()} == {"a", "c"}

    def test_attrs_recorded(self, on):
        with obs.span("tagged", badge=3, day=2):
            pass
        (s,) = tracing.collector.by_name("tagged")
        assert s.attrs == {"badge": 3, "day": 2}

    def test_exception_marks_span_and_unwinds_stack(self, on):
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        (s,) = tracing.collector.by_name("doomed")
        assert s.attrs["error"] == "RuntimeError"
        assert obs.current_span() is None

    def test_sim_time_durations(self, on):
        clock = {"t": 100.0}
        obs.set_sim_clock(lambda: clock["t"])
        with obs.span("simmed"):
            clock["t"] = 160.0
        (s,) = tracing.collector.by_name("simmed")
        assert s.sim_s == pytest.approx(60.0)

    def test_sim_time_none_without_clock(self, on):
        with obs.span("wall_only"):
            pass
        (s,) = tracing.collector.by_name("wall_only")
        assert s.sim_s is None

    def test_breakdown_aggregates_by_name(self, on):
        for _ in range(3):
            with obs.span("stage"):
                pass
        breakdown = tracing.collector.breakdown()
        assert breakdown["stage"]["count"] == 3
        assert breakdown["stage"]["wall_s"] >= 0.0


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        obs.reset()
        s1 = obs.span("anything", big=1)
        s2 = obs.span("else")
        assert s1 is s2 is tracing.NOOP_SPAN

    def test_disabled_span_records_nothing(self):
        obs.reset()
        with obs.span("invisible"):
            pass
        assert tracing.collector.spans == []
        assert obs.current_span() is None

    def test_reset_clears_spans_and_stack(self, on):
        with obs.span("kept"):
            pass
        obs.reset()
        assert tracing.collector.spans == []
