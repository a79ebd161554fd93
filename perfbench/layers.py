"""Per-layer metrics of a traced phase.

Layer times are reported as shares of the requests' traced wall time
(``trace.request_wall_s`` per request gives the scale: seconds per
request = share x ``trace.request_wall_s``).  A share is a ratio, so a
layer a workload never calls reads an honest 0 rather than a time that
never changes.  An entry point's *inclusive* time is the sum of its
spans' durations; its *self* time excludes what its child spans cover.
``<layer>.share`` is the layer's self time; the layer shares and
``trace.remainder_share`` add up to one.  Counts are per request, ratios
are taken over the counts the hooks recorded at the same boundaries.
"""

from __future__ import annotations

from perfbench.spans import RequestBreakdown, Span, in_requests, request_breakdown, self_times

FIGURE_SPANS = tuple(f"analytics.fig{n}" for n in range(2, 7))
TABLE_SPANS = ("analytics.table1", "analytics.section5", "analytics.deployment_stats")

#: metric -> ("inclusive" | "self", span names)
SHARES = {
    "crew.simulate_mission_share": ("inclusive", ("crew.simulate_mission",)),
    "crew.movement_share": ("inclusive", ("crew.movement",)),
    "crew.conversation_share": ("inclusive", ("crew.conversation",)),
    "badges.sense_day_self_share": ("self", ("badges.sense_day",)),
    "radio.ble_scan_share": ("inclusive", ("radio.ble_scan",)),
    "localization.localize_fleet_share": ("inclusive", ("localization.localize_fleet",)),
    "exec.compute_day_self_share": ("self", ("exec.compute_day",)),
    "exec.cache_load_share": ("inclusive", ("exec.cache_load",)),
    "exec.cache_store_share": ("inclusive", ("exec.cache_store",)),
    "exec.journal_share": ("inclusive", ("exec.journal_record", "exec.journal_load")),
    "quality.gate_share": ("inclusive", ("quality.gate",)),
    "analytics.figures_share": ("inclusive", FIGURE_SPANS),
    "analytics.tables_share": ("inclusive", TABLE_SPANS),
    "experiments.run_mission_self_share": ("self", ("experiments.run_mission",)),
    "service.submit_share": ("inclusive", ("service.submit",)),
    "service.wait_self_share": ("self", ("service.wait",)),
    "service.persist_share": ("inclusive", ("service.complete",)),
    "service.result_share": ("inclusive", ("service.result",)),
}

#: Layers whose shares are reported, by span-name prefix.
LAYERS = ("crew", "badges", "radio", "localization", "exec", "quality",
          "analytics", "experiments", "service")

#: metric -> unit, for every metric :func:`layer_metrics` returns.
UNITS = {
    **{name: "ratio" for name in SHARES},
    "crew.astronaut_days": "count",
    "badges.badge_days": "count",
    "localization.fix_ratio": "ratio",
    "exec.cache_hit_ratio": "ratio",
    "exec.cache_bytes": "B",
    "exec.cache_quarantined": "count",
    "quality.ok_ratio": "ratio",
    "service.queue_wait_share": "ratio",
    "service.execute_share": "ratio",
    "service.dedup_ratio": "ratio",
    "service.retries": "count",
    "service.useful_ratio": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.remainder_share": "ratio",
    "trace.request_wall_s": "s",
    "trace.requests": "count",
    "trace.overhead_fraction": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_counts(spans: list[Span], key: str) -> float:
    return sum(sp.counts.get(key, 0) for sp in spans)


def layer_metrics(spans: list[Span], extra: dict,
                  overhead_fraction: float) -> tuple[dict, list[RequestBreakdown]]:
    """Every per-layer metric of one traced phase, and the per-request
    breakdowns they rest on.  ``extra`` carries the registry figures
    (times in seconds, summed over jobs) and the quarantine count."""
    breakdowns = request_breakdown(spans)
    served = in_requests(spans)
    selfs = self_times(spans)
    n = len(breakdowns)
    wall = sum(b.wall_s for b in breakdowns)
    out: dict[str, float] = {}
    for metric, (kind, names) in SHARES.items():
        chosen = [sp for sp in served if sp.name in names]
        total = sum(selfs[sp.span_id] if kind == "self" else sp.duration for sp in chosen)
        out[metric] = _ratio(total, wall)

    def named(*prefixes: str) -> list[Span]:
        return [sp for sp in served if sp.name.startswith(prefixes)]

    out["crew.astronaut_days"] = _ratio(_sum_counts(named("crew."), "astronaut_days"), n)
    out["badges.badge_days"] = _ratio(_sum_counts(named("badges."), "badge_days"), n)
    loc = named("localization.")
    out["localization.fix_ratio"] = _ratio(_sum_counts(loc, "fixes"),
                                           _sum_counts(loc, "active_frames"))
    loads = named("exec.cache_load")
    out["exec.cache_hit_ratio"] = _ratio(_sum_counts(loads, "hits"),
                                         _sum_counts(loads, "lookups"))
    out["exec.cache_bytes"] = _ratio(_sum_counts(named("exec.cache_store"), "bytes"), n)
    out["exec.cache_quarantined"] = float(extra.get("quarantined", 0))
    gates = named("quality.")
    out["quality.ok_ratio"] = _ratio(_sum_counts(gates, "ok"), _sum_counts(gates, "verdicts"))
    out["service.queue_wait_share"] = _ratio(extra.get("queue_wait_s", 0.0), wall)
    out["service.execute_share"] = _ratio(extra.get("execute_s", 0.0), wall)
    for metric in ("service.dedup_ratio", "service.retries", "service.useful_ratio"):
        out[metric] = float(extra.get(metric.split(".", 1)[1], 0.0))

    for layer in LAYERS:
        layer_self = sum(
            s for b in breakdowns for name, s in b.self_s.items()
            if name.split(".", 1)[0] == layer)
        out[f"{layer}.share"] = _ratio(layer_self, wall)
    out["trace.remainder_share"] = _ratio(sum(b.remainder_s for b in breakdowns), wall)
    out["trace.request_wall_s"] = _ratio(wall, n)
    out["trace.requests"] = float(n)
    out["trace.overhead_fraction"] = overhead_fraction
    return out, breakdowns


def overhead(untraced: dict[int, float], traced: dict[int, float]) -> float:
    """Traced against untraced time over the requests both phases ran."""
    both = [i for i in traced if i in untraced]
    if not both:
        return 0.0
    return _ratio(sum(traced[i] for i in both), sum(untraced[i] for i in both)) - 1.0
