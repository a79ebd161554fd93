"""The repository benchmark.

    python3 perfbench/run.py --workload cold_mission --seed 1 --seconds 30 --trace 0

Workloads: ``cold_mission``, ``sensing_sweep``, ``fleet_service`` (see
``perfbench/README.md`` for why each exists).  With ``--trace 0`` the run
sets up several times, measures for ``--seconds`` with no wrappers
installed and reports the end-to-end metrics.  With ``--trace 1`` it
measures half the time untraced and half with timing wrappers around
each layer's entry points, and reports the per-layer metrics plus the
tracing overhead.  ``repro.obs`` stays disabled in both.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat each metric with its unit and sample count, the content
digest of the run's outputs and a machine reading.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics and their units; every untraced run reports each.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_s": "s",
    "requests_per_s": "1/s",
    "badge_days_per_s": "1/s",
}

#: What one request is, and the name each end-to-end metric goes by in
#: the workload's own terms.
REQUEST_OF = {
    "cold_mission": ("mission", {"latency_p50_s": "mission_s",
                                 "requests_per_s": "missions_per_s"}),
    "sensing_sweep": ("sweep variant", {"latency_p50_s": "variant_s",
                                        "requests_per_s": "variants_per_s"}),
    "fleet_service": ("submission", {"latency_p50_s": "job_latency_p50_s",
                                     "requests_per_s": "jobs_per_s"}),
}


def _workload(name: str):
    from perfbench import cold_mission, fleet_service, sensing_sweep

    return {"cold_mission": cold_mission, "sensing_sweep": sensing_sweep,
            "fleet_service": fleet_service}[name]


def untraced(name: str, seed: int, seconds: float, work: Path) -> dict:
    from perfbench.common import median, percentile, self_peak_rss_mb
    from perfbench.host import probe_s

    wl = _workload(name)
    probes = [probe_s()]
    samples, session = wl.setup(seed, work, wl.SETUP_REPEATS)
    try:
        m = wl.measure(session, seed, work, seconds)
    finally:
        wl.close(session)
    probes += m.probes + [probe_s()]
    latencies = list(m.latencies.values())
    n = len(latencies)
    metrics = {
        "setup_s": (median(samples), len(samples)),
        "peak_rss_mb": (self_peak_rss_mb() + m.child_rss_mb, 1),
        "latency_p50_s": (median(latencies), n),
        "requests_per_s": (n / m.wall_s if m.wall_s else 0.0, n),
        "badge_days_per_s": (m.badge_days / m.wall_s if m.wall_s else 0.0, n),
    }
    notes = {"job_latency_p90_s": percentile(latencies, 0.9)} if name == "fleet_service" else {}
    return {"measured": m, "metrics": metrics, "units": END_TO_END,
            "digest": m.digest(wl.DIGEST_REQUESTS), "failures": m.failures,
            "notes": notes, "probes": probes}


def traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    from perfbench import layers
    from perfbench.host import probe_s
    from perfbench.spans import ADDITIVITY_TOLERANCE_S, Tracer

    wl = _workload(name)
    # The phase that runs first pays the process's warm-up and meets other
    # machine load; alternating the order by seed parity keeps that out of
    # the overhead figure on average.
    tracers = [None, Tracer()] if seed % 2 == 0 else [Tracer(), None]
    phases = {}
    probes = [probe_s()]
    for tracer in tracers:
        _, session = wl.setup(seed, work, 1, traced=tracer is not None)
        try:
            phases[tracer is not None] = wl.measure(session, seed, work, seconds / 2, tracer)
        finally:
            wl.close(session)
    plain, m = phases[False], phases[True]
    probes += plain.probes + m.probes + [probe_s()]
    values, breakdowns = layers.layer_metrics(
        m.spans, m.extra, layers.overhead(plain.latencies, m.latencies))
    digest = m.digest(wl.DIGEST_REQUESTS)
    trace_failures = [
        f"request {b.request}: self times miss its wall time by {b.additivity_error_s:.2e} s"
        for b in breakdowns if b.additivity_error_s > ADDITIVITY_TOLERANCE_S]
    if digest != plain.digest(wl.DIGEST_REQUESTS):
        trace_failures.append("traced outputs differ from untraced outputs")
    failures = plain.failures + m.failures + trace_failures
    # A broken trace spoils the run's per-layer figures as a whole: it
    # counts as one failed operation.
    m.failed += plain.failed + bool(trace_failures)
    m.attempted += plain.attempted
    n = int(values["trace.requests"])
    return {"measured": m, "metrics": {k: (v, n) for k, v in values.items()},
            "units": layers.UNITS, "digest": digest, "failures": failures,
            "notes": {"predictions": predictions(name, values)}, "probes": probes}


def predictions(name: str, values: dict) -> dict:
    """The layer calls each workload is predicted not to make."""
    if name == "sensing_sweep":
        return {"no crew calls": values["crew.share"] == 0.0}
    if name == "cold_mission":
        untouched = ("exec.cache_load_share", "exec.cache_store_share",
                     "exec.journal_share", "service.share")
        return {"no cache, journal or service calls":
                all(values[k] == 0.0 for k in untouched)}
    return {}


def report(name: str, seed: int, trace: int, out: dict, host: dict) -> dict:
    m = out["measured"]
    request, aliases = REQUEST_OF[name]
    lines = [f"perfbench {name} seed={seed} trace={trace} (one request = one {request})"]
    for metric, (value, samples) in out["metrics"].items():
        alias = f"  [{aliases[metric]}]" if trace == 0 and metric in aliases else ""
        lines.append(f"  {metric:<34} {value:>14.6g} {out['units'][metric]:<6}"
                     f" n={samples}{alias}")
    for note, value in out["notes"].items():
        lines.append(f"  {note}: {value if value is not None else 'n/a (too few samples)'}")
    lines.append(f"  failed_fraction {m.failed / m.attempted if m.attempted else 1.0:.4f}"
                 f" ({m.failed} of {m.attempted})")
    for failure in out["failures"][:20]:
        lines.append(f"  FAILED: {failure}")
    lines.append(f"  digest {out['digest']}")
    lines.append(f"  host {json.dumps(host, sort_keys=True)}")
    print("\n".join(lines))
    correct = not out["failures"] and m.attempted > 0
    return {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed if correct else max(m.failed, 1),
        "metrics": {k: {"value": v, "unit": out["units"][k]}
                    for k, (v, _n) in out["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REQUEST_OF))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]  # not this directory
    from perfbench import host

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else untraced
        out = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    result = report(args.workload, args.seed, args.trace, out, host.reading(out["probes"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
