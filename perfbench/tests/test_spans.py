"""Self-time arithmetic over nested, sibling and cross-process spans."""

import pytest

from perfbench.spans import (
    REQUEST,
    Span,
    Tracer,
    propagate_requests,
    request_breakdown,
    self_times,
)


def sp(span_id, name, start, end, parent=None, request=""):
    return Span(span_id=span_id, name=name, start=start, end=end,
                parent=parent, request=request)


def test_nested_and_sibling_self_times():
    spans = [
        sp("r", REQUEST, 0.0, 10.0, request="q"),
        sp("a", "exec.compute_day", 1.0, 7.0, "r"),
        sp("b", "badges.sense_day", 1.5, 4.0, "a"),
        sp("c", "radio.ble_scan", 2.0, 3.0, "b"),
        sp("d", "localization.localize_fleet", 4.0, 6.5, "a"),
        sp("e", "quality.gate", 8.0, 9.0, "r"),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx(
        {"r": 10.0 - 6.0 - 1.0, "a": 6.0 - 2.5 - 2.5, "b": 2.5 - 1.0,
         "c": 1.0, "d": 2.5, "e": 1.0})
    (breakdown,) = request_breakdown(spans)
    assert breakdown.wall_s == 10.0
    assert breakdown.remainder_s == pytest.approx(3.0)
    assert breakdown.additivity_error_s == pytest.approx(0.0, abs=1e-12)


def test_children_that_overlap_each_other_are_counted_once_in_self_time():
    spans = [sp("r", REQUEST, 0.0, 4.0, request="q"),
             sp("a", "x.one", 1.0, 3.0, "r"),
             sp("b", "x.two", 2.0, 3.5, "r")]
    assert self_times(spans)["r"] == pytest.approx(1.5)
    # ... but the two siblings then claim the same second twice, which
    # the additivity check exposes.
    (breakdown,) = request_breakdown(spans)
    assert breakdown.additivity_error_s == pytest.approx(1.0)


def test_a_span_outlasting_its_parent_is_cut_to_it():
    spans = [sp("r", REQUEST, 0.0, 5.0, request="q"),
             sp("w", "service.wait", 1.0, 4.0, "r"),
             sp("x", "service.complete", 3.0, 4.5, "w"),
             sp("y", "service.result", 4.0, 5.0, "r")]
    selfs = self_times(spans)
    assert selfs["x"] == pytest.approx(1.0)
    assert selfs["w"] == pytest.approx(2.0)
    (breakdown,) = request_breakdown(spans)
    assert breakdown.additivity_error_s == pytest.approx(0.0, abs=1e-12)


def test_requests_are_separated_and_inherited_down_the_tree():
    spans = [sp("r1", REQUEST, 0.0, 2.0, request="one"),
             sp("a", "crew.movement", 0.5, 1.5, "r1"),
             sp("r2", REQUEST, 3.0, 4.0, request="two"),
             sp("b", "crew.movement", 3.2, 3.4, "r2")]
    propagate_requests(spans)
    assert [s.request for s in spans] == ["one", "one", "two", "two"]
    by_request = {b.request: b for b in request_breakdown(spans)}
    assert by_request["one"].self_s == {"crew.movement": pytest.approx(1.0)}
    assert by_request["two"].remainder_s == pytest.approx(0.8)


def test_tracer_nests_spans_and_survives_exceptions(tmp_path):
    tracer = Tracer(tag="t")
    with tracer.span(REQUEST, request="q") as root:
        with tracer.span("crew.movement") as inner:
            pass
        with pytest.raises(ValueError):
            with tracer.span("crew.conversation"):
                raise ValueError("boom")
    assert inner.parent == root.span_id and inner.request == "q"
    assert [s.name for s in tracer.spans] == ["crew.movement", "crew.conversation", REQUEST]
    assert all(s.end >= s.start for s in tracer.spans)
    path = tmp_path / "spans.json"
    tracer.dump(path)
    from perfbench.spans import load_spans

    assert [s.span_id for s in load_spans(path)] == [s.span_id for s in tracer.spans]
