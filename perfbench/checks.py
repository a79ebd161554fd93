"""Output checks.  Each returns a list of failure messages; empty is a pass.

A failed check counts against the request it belongs to, so it shows in
the run's ``failed`` count and makes the run exit non-zero.
"""

from __future__ import annotations

from typing import Optional

#: Room accuracy a paper-config mission must reach against ``true_room``
#: (EXPERIMENTS.md reports 0.998).
MIN_ROOM_ACCURACY = 0.99

#: Rows of Table I: one per astronaut of the paper's crew.
TABLE1_ROWS = 6


def check_quality(result) -> list[str]:
    """Every badge-day the gate saw got the verdict ``ok``."""
    if result.quality is None or not result.quality.verdicts:
        return ["quality gate produced no verdicts"]
    bad = [v for v in result.quality.verdicts if v.verdict != "ok"]
    return [f"{len(bad)} badge-day verdict(s) not ok"] if bad else []


def check_accuracy(result) -> list[str]:
    from repro.experiments.accuracy import localization_accuracy

    acc = localization_accuracy(result.sensing).room_accuracy
    if acc < MIN_ROOM_ACCURACY:
        return [f"room accuracy {acc:.4f} below {MIN_ROOM_ACCURACY}"]
    return []


def check_mission(result, analyses: dict) -> list[str]:
    """``cold_mission``: verdicts, accuracy, Figure 5 tracks, Table I rows."""
    from repro.crew.events_script import DECEASED, deceased_absent

    failures = check_quality(result) + check_accuracy(result)
    timeline = analyses["fig5"]
    present = sorted(
        a for a in result.truth.roster.ids
        if not (a == DECEASED and deceased_absent(result.cfg, timeline.day)))
    tracks = sorted(t.astro_id for t in timeline.tracks)
    if tracks != present:
        failures.append(f"figure 5 tracks {tracks} != present astronauts {present}")
    table = analyses["table1"]
    for column in ("company", "authority", "talking", "walking"):
        rows = len(getattr(table, column))
        if rows != TABLE1_ROWS:
            failures.append(f"table I {column} has {rows} rows, not {TABLE1_ROWS}")
    return failures


def check_variant(result, n_beacons: int, simulations: int) -> list[str]:
    """``sensing_sweep``: the variant made no crew simulation (its truth
    came from the cache), every verdict is ``ok``, and 27-beacon variants
    keep room accuracy."""
    failures = check_quality(result)
    if simulations:
        failures.append(f"simulate_mission ran {simulations} time(s) after set-up")
    if n_beacons == 27:
        failures += check_accuracy(result)
    return failures


def check_job(op, record, payload: Optional[dict], base: Optional[dict]) -> list[str]:
    """``fleet_service``: one submission's fate.

    ``op`` is the trace entry, ``record`` the registry row the client saw
    last, ``payload`` the verified result (None when reading it failed)
    and ``base`` the outcome of the submission a duplicate or variant
    refers to (a dict with ``job_id``, ``result_digest`` and
    ``content_digest``).
    """
    if record.state != "done":
        return [f"submission {op.index} ended {record.state}: {record.error}"]
    if payload is None:
        return [f"submission {op.index}: result failed verification"]
    failures = []
    if payload.get("fingerprint") != record.fingerprint:
        failures.append(f"submission {op.index}: result belongs to another job")
    if op.kind == "duplicate":
        if record.job_id != base["job_id"]:
            failures.append(f"duplicate {op.index} got its own job {record.job_id}")
        if record.result_digest != base["result_digest"]:
            failures.append(f"duplicate {op.index} has a different digest")
    elif op.kind == "variant":
        from perfbench.digest import digest

        if digest((payload["summaries"], payload["pairwise"])) != base["content_digest"]:
            failures.append(
                f"variant {op.index} ({op.quality}) summaries differ from its original")
    return failures
