"""Command-line interface: ``python -m repro <command>``.

Commands:
    run        simulate a mission and print Table I + deployment stats
    figures    simulate and print every figure's data
    save       simulate and persist the sensing dataset to a directory
    analyze    re-run all analyses on a previously saved dataset
    telemetry  run a short instrumented mission, print the telemetry report
    faults     run a faulted mission under seeded chaos campaign(s)
    quality    run a data-corruption campaign and print the quality report
    reliability  analytic CTMC model: predict, validate, worst-case search
    serve      run the durable mission fleet service on a service directory
    submit     queue a mission submission with the fleet service
    status     show a job's registry record, or the whole fleet overview
    result     print the stored result payload of a completed job
    drain      run the fleet service until the registry holds no work
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    ExecutionConfig,
    MissionConfig,
    build_deployment_stats,
    build_section5_claims,
    build_table1,
    run_mission,
)
from repro.core.errors import ConfigError
from repro.exec import JournalBusyError
from repro.service.errors import QueueFullError, ServiceError


def _workers(value: str) -> int | str:
    """``--workers`` as an int where it is one; ExecutionConfig validates it."""
    try:
        return int(value)
    except ValueError:
        return value


def _add_mission_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--days", type=int, default=14,
                        help="mission length in days (default: the paper's 14)")
    parser.add_argument("--seed", type=int, default=7, help="master RNG seed")
    parser.add_argument("--no-events", action="store_true",
                        help="disable the scripted mission events")
    parser.add_argument("--workers", type=_workers, default="serial", metavar="N",
                        help="badge-day workers: an integer, 'serial' "
                             "(default), or 'auto' (serial on <=2 cores, "
                             "one worker per core otherwise; results are "
                             "identical either way)")
    parser.add_argument("--cache", "--checkpoint", dest="cache", default=None,
                        metavar="DIR",
                        help="content-addressed store of ground truth and "
                             "completed days: each day is stored as it "
                             "finishes, and rerunning the same command "
                             "resumes from the stored days (bit-identical "
                             "to an uninterrupted run)")
    parser.add_argument("--quality", default="auto",
                        choices=("auto", "off", "gate", "strict"),
                        help="validating ingest gate: 'auto' (default) gates "
                             "only when the fault plan corrupts data, 'gate' "
                             "always, 'strict' raises on quarantines, 'off' "
                             "never")


def _config(args: argparse.Namespace) -> MissionConfig:
    kwargs = {"days": args.days, "seed": args.seed}
    if args.no_events:
        kwargs["events"] = None
    return MissionConfig(**kwargs)


def _execution(args: argparse.Namespace) -> ExecutionConfig:
    return ExecutionConfig(n_workers=args.workers, cache_dir=args.cache)


def cmd_run(args: argparse.Namespace) -> int:
    result = run_mission(_config(args), execution=_execution(args),
                         quality=args.quality)
    checkpoint = (result.cache_stats or {}).get("checkpoint")
    if checkpoint is not None and checkpoint["resumed_days"]:
        days = ", ".join(str(d) for d in checkpoint["resumed_days"])
        print(f"resumed {len(checkpoint['resumed_days'])} day(s) from "
              f"checkpoint: {days}")
        print()
    print(build_table1(result))
    print()
    print(build_deployment_stats(result))
    print()
    print(build_section5_claims(result))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import (
        fig2, fig3, fig4, fig5, fig6,
        format_fig2, format_fig3, format_fig5, format_series,
    )

    result = run_mission(_config(args), execution=_execution(args),
                         quality=args.quality)
    data2 = fig2(result)
    print("=== Figure 2 ===")
    print(format_fig2(*data2, coverage=getattr(data2, "coverage", 1.0)))
    print("\n=== Figure 3 ==="); print(format_fig3(fig3(result, "A")))
    print("\n=== Figure 4 ==="); print(format_series(fig4(result)))
    print("\n=== Figure 5 ==="); print(format_fig5(result, fig5(result)))
    print("\n=== Figure 6 ==="); print(format_series(fig6(result)))
    return 0


def cmd_save(args: argparse.Namespace) -> int:
    from repro.analytics.dataset_io import save_sensing

    result = run_mission(_config(args), execution=_execution(args),
                         quality=args.quality)
    save_sensing(result.sensing, args.path)
    print(f"saved {len(result.sensing.summaries)} badge-days to {args.path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analytics.dataset_io import load_sensing
    from repro.analytics.reports import deployment_stats, table1

    sensing = load_sensing(args.path, quality=args.gate)
    if sensing.quality is not None and not sensing.quality.all_ok:
        print(sensing.quality.to_text())
        print()
    print(table1(sensing).to_text())
    print()
    print(deployment_stats(sensing).to_text())
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    obs.reset()
    obs.enable()
    obs.logging.buffer.echo = args.echo_logs
    try:
        result = run_mission(_config(args), execution=_execution(args),
                             quality=args.quality)
        print(result.telemetry.to_text())
        if args.json:
            print()
            print(json.dumps(result.telemetry, indent=2, sort_keys=True, default=float))
    finally:
        obs.reset()
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    import pathlib

    from repro.faults import FaultCampaign

    base_cfg = _config(args)
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    collected: dict[str, dict] = {}
    for i, campaign_seed in enumerate(args.campaign_seed):
        if i:
            print()
        campaign = FaultCampaign.reference(
            days=base_cfg.days, seed=campaign_seed,
            n_beacons=base_cfg.n_beacons, n_badges=base_cfg.crew_size,
        )
        plan = campaign.generate()
        cfg = dataclasses.replace(base_cfg, fault_plan=plan)
        print(f"campaign seed {campaign_seed}: {len(plan.events)} fault events "
              f"({len(plan.bus_events())} bus, {len(plan.sensing_events())} sensing, "
              f"{len(plan.data_events())} data)")
        result = run_mission(cfg, execution=_execution(args), quality=args.quality)
        print()
        print(result.reliability.to_text())
        if result.quality is not None:
            print()
            print(result.quality.to_text())
        print()
        print(f"badge-days sensed: {len(result.sensing.summaries)}, "
              f"SD-card total: {result.sdcard.total_gib():.1f} GiB, "
              f"cards over capacity: {result.sdcard.over_capacity() or 'none'}")
        report_dict = result.reliability.to_dict()
        collected[str(campaign_seed)] = report_dict
        if out_dir is not None:
            path = out_dir / f"faults-seed-{campaign_seed}.json"
            path.write_text(json.dumps(report_dict, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
    if args.json:
        print()
        if len(args.campaign_seed) == 1:
            print(json.dumps(collected[str(args.campaign_seed[0])],
                             indent=2, sort_keys=True))
        else:
            print(json.dumps(collected, indent=2, sort_keys=True))
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    import pathlib

    from repro.core.config import MissionConfig
    from repro.faults.campaign import FaultCampaign
    from repro.reliability import (
        CoverageModel,
        ReliabilityModel,
        default_coverage_config,
        sweep_coverage_regimes,
        sweep_regimes,
        validate_campaign,
        validate_coverage_campaign,
    )

    coverage = getattr(args, "coverage", False)

    def _campaign(seed: int) -> FaultCampaign:
        if coverage:
            return FaultCampaign.coverage_reference(days=args.days, seed=seed)
        return FaultCampaign.reference(days=args.days, seed=seed)

    cfg = MissionConfig(days=args.days, seed=args.seed)

    def _model(campaign: FaultCampaign):
        if coverage:
            return CoverageModel(campaign)
        return ReliabilityModel(campaign,
                                earth_link_delay_s=cfg.earth_link_delay_s)

    def _validate(campaign: FaultCampaign):
        if coverage:
            mission_cfg = dataclasses.replace(
                default_coverage_config(campaign), seed=args.seed)
            return validate_coverage_campaign(
                campaign, mission_cfg, confidence=args.confidence)
        return validate_campaign(campaign, cfg, confidence=args.confidence)

    if args.rel_command == "predict":
        prediction = _model(_campaign(args.campaign_seed)).predict(args.confidence)
        print(prediction.to_text())
        if args.json:
            print()
            print(json.dumps(prediction.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.rel_command == "validate":
        result, report = _validate(_campaign(args.campaign_seed))
        print(result.to_text())
        print()
        print(report.to_text())
        if args.json:
            print()
            print(json.dumps(
                {"validation": result.to_dict(), "report": report.to_dict()},
                indent=2, sort_keys=True))
        return 0 if result.all_inside else 1

    # search
    if coverage:
        regimes = sweep_coverage_regimes(
            base=_campaign(0), n_regimes=args.regimes, seed=args.sweep_seed,
            top_k=args.top)
    else:
        regimes = sweep_regimes(
            base=_campaign(0), n_regimes=args.regimes, seed=args.sweep_seed,
            top_k=args.top, earth_link_delay_s=cfg.earth_link_delay_s)
    kind = "coverage" if coverage else "reliability"
    print(f"swept {args.regimes} {kind} regimes analytically; "
          f"top {args.top} predicted-worst:")
    for regime in regimes:
        print(f"  {regime.to_text()}")
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    prefix = "coverage-regime" if coverage else "regime"
    for regime in regimes:
        artifact = {
            "regime": regime.to_dict(),
            "prediction": _model(regime.campaign).predict(args.confidence).to_dict(),
        }
        if args.empirical:
            result, report = _validate(regime.campaign)
            print()
            print(f"=== regime #{regime.rank} (campaign seed "
                  f"{regime.campaign.seed}) ===")
            print(result.to_text())
            artifact["validation"] = result.to_dict()
            artifact["report"] = report.to_dict()
            if not result.all_inside:
                failures += 1
        if out_dir is not None:
            path = out_dir / f"{prefix}-{regime.rank}.json"
            path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
    if args.json:
        print()
        print(json.dumps([r.to_dict() for r in regimes], indent=2, sort_keys=True))
    return 1 if failures else 0


def cmd_quality(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.faults import FaultCampaign

    cfg = _config(args)
    if args.clean:
        mode = "gate"
    else:
        # Target the primary badges: backups mostly carry no data, so
        # corrupting them would be a silent no-op.
        campaign = FaultCampaign.corruption(
            days=cfg.days, seed=args.campaign_seed, n_badges=cfg.crew_size,
        )
        plan = campaign.generate()
        cfg = dataclasses.replace(cfg, fault_plan=plan)
        mode = args.quality if args.quality != "off" else "gate"
        print(f"corruption campaign seed {args.campaign_seed}: "
              f"{len(plan.data_events())} data-corruption events")
        print()
    result = run_mission(cfg, execution=_execution(args), quality=mode)
    print(result.quality.to_text())
    if args.json:
        print()
        print(result.quality.to_json())
    return 0


def _service_config(args: argparse.Namespace):
    from repro.service import ServiceConfig

    return ServiceConfig(
        root=args.service,
        n_workers=args.workers,
        queue_depth=args.queue_depth,
        lease_s=args.lease_s,
        max_attempts=args.max_attempts,
        backoff_seed=args.backoff_seed,
        job_timeout_s=args.job_timeout_s,
    )


def _fleet_client(args: argparse.Namespace, *, create: bool = False):
    """Client on the service root; REPRO_REGISTRY_TIMEOUT_S bounds how
    long to wait on a locked registry before giving up with exit 2."""
    import os

    from repro.service import FleetClient

    timeout = float(os.environ.get("REPRO_REGISTRY_TIMEOUT_S", "5.0"))
    return FleetClient(args.service, create=create, busy_timeout_s=timeout)


def _print_job(record) -> None:
    print(f"job {record.job_id}  state={record.state}  "
          f"attempts={record.attempts}/{record.max_attempts}  "
          f"submissions={record.submit_count}")
    print(f"  fingerprint {record.fingerprint}")
    if record.result_path:
        print(f"  result {record.result_path} (digest {record.result_digest})")
    if record.error:
        print(f"  last error: {record.error}")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    chaos = None
    if args.chaos_kill_after is not None:
        from repro.faults.service import ServiceChaos

        chaos = ServiceChaos(kill_after_completions=args.chaos_kill_after)
    drain = args.drain or args.command == "drain"
    stats = serve(_service_config(args), drain=drain, chaos=chaos,
                  install_signal_handlers=True)
    verb = "drained" if drain else "stopped"
    print(f"{verb}: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    kwargs = {"days": args.days, "seed": args.seed}
    if args.no_events:
        kwargs["events"] = None
    if args.frame_dt is not None:
        kwargs["frame_dt"] = args.frame_dt
    cfg = MissionConfig(**kwargs)
    with _fleet_client(args, create=True) as client:
        receipt = client.submit(cfg, quality=args.quality, tenant=args.tenant)
        print(receipt.to_text())
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    with _fleet_client(args) as client:
        if args.ref is not None:
            _print_job(client.status(args.ref))
            return 0
        overview = client.overview()
        counts = overview["counts"]
        print("fleet: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
        print(f"submissions: {overview['submitted']} "
              f"({overview['deduped']} deduplicated onto "
              f"{overview['jobs']} jobs)")
        probe = client.health()
        print(f"service: live={probe['live']} ready={probe['ready']}"
              + (f" ({probe['detail']})" if probe.get("detail") else ""))
        for letter in overview["dead_letters"]:
            print(f"dead: {letter['job_id']} after {letter['attempts']} "
                  f"attempts: {letter['error']}")
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    import json

    with _fleet_client(args) as client:
        if args.wait_s is not None:
            client.wait(args.ref, timeout_s=args.wait_s)
        payload = client.result(args.ref)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    else:
        quality = payload.get("quality") or {}
        print(f"fingerprint {payload['fingerprint']}")
        print(f"badge-days: {payload['badge_days']}, "
              f"SD-card total: {payload['sdcard_gib']:.1f} GiB"
              + (f", quality: {'ok' if quality.get('all_ok') else 'degraded'}"
                 if quality else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of '30 Sensors to Mars' (ICDCS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a mission, print Table I")
    _add_mission_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figures", help="simulate and print every figure")
    _add_mission_args(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_save = sub.add_parser("save", help="simulate and persist the dataset")
    _add_mission_args(p_save)
    p_save.add_argument("path", help="output directory")
    p_save.set_defaults(func=cmd_save)

    p_tel = sub.add_parser(
        "telemetry",
        help="run a short instrumented mission and print the telemetry report",
    )
    _add_mission_args(p_tel)
    p_tel.set_defaults(days=2)  # short mission by default; --days overrides
    p_tel.add_argument("--json", action="store_true",
                       help="also dump the raw telemetry snapshot as JSON")
    p_tel.add_argument("--echo-logs", action="store_true",
                       help="echo structured log records to stderr as they happen")
    p_tel.set_defaults(func=cmd_telemetry)

    p_flt = sub.add_parser(
        "faults",
        help="run a faulted mission under a seeded chaos campaign",
    )
    _add_mission_args(p_flt)
    p_flt.set_defaults(days=3)  # short chaos mission by default; --days overrides
    p_flt.add_argument("--campaign-seed", type=int, default=[0], nargs="+",
                       metavar="SEED",
                       help="seed(s) of the randomized fault campaign; "
                            "multiple seeds run a sweep")
    p_flt.add_argument("--json", action="store_true",
                       help="also dump the reliability report(s) as JSON")
    p_flt.add_argument("--out", default=None, metavar="DIR",
                       help="archive each seed's reliability report as "
                            "DIR/faults-seed-<seed>.json (for CI diffing)")
    p_flt.set_defaults(func=cmd_faults)

    p_rel = sub.add_parser(
        "reliability",
        help="analytic CTMC reliability model: predict, validate, search",
    )
    rel_sub = p_rel.add_subparsers(dest="rel_command", required=True)

    def _add_reliability_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--days", type=int, default=14,
                       help="campaign horizon in days (default: 14)")
        p.add_argument("--seed", type=int, default=7,
                       help="mission seed for empirical runs")
        p.add_argument("--confidence", type=float, default=0.998,
                       help="two-sided band confidence (default: 0.998)")
        p.add_argument("--json", action="store_true",
                       help="also dump results as JSON")
        p.add_argument("--coverage", action="store_true",
                       help="use the sensing-level coverage model (data "
                            "corruption, beacon outages, quality-gate "
                            "verdicts) instead of the bus-level model")

    p_pred = rel_sub.add_parser(
        "predict", help="closed-form reliability forecast for a campaign")
    _add_reliability_args(p_pred)
    p_pred.add_argument("--campaign-seed", type=int, default=0,
                        help="seed of the reference fault campaign")
    p_pred.set_defaults(func=cmd_reliability)

    p_val = rel_sub.add_parser(
        "validate",
        help="run a seeded campaign empirically, check it against the "
             "model's confidence bands (exit 1 if any metric is outside)",
    )
    _add_reliability_args(p_val)
    p_val.add_argument("--campaign-seed", type=int, default=0,
                       help="seed of the reference fault campaign")
    p_val.set_defaults(func=cmd_reliability)

    p_srch = rel_sub.add_parser(
        "search",
        help="sweep the fault-rate space analytically, emit the top-K "
             "predicted-worst regimes as seeded campaigns",
    )
    _add_reliability_args(p_srch)
    p_srch.add_argument("--regimes", type=int, default=64,
                        help="number of sampled regimes to score (default: 64)")
    p_srch.add_argument("--top", type=int, default=3,
                        help="how many worst regimes to emit (default: 3)")
    p_srch.add_argument("--sweep-seed", type=int, default=0,
                        help="seed of the regime sampler")
    p_srch.add_argument("--empirical", action="store_true",
                        help="also run each emitted regime empirically and "
                             "validate it against the model")
    p_srch.add_argument("--out", default=None, metavar="DIR",
                        help="write per-regime prediction/validation JSON "
                             "artifacts to DIR (for CI upload)")
    p_srch.set_defaults(func=cmd_reliability)

    p_an = sub.add_parser("analyze", help="analyze a saved dataset")
    p_an.add_argument("path", help="directory written by 'save'")
    p_an.add_argument("--gate", default="gate",
                      choices=("off", "gate", "strict"),
                      help="ingest gate for the loaded dataset "
                           "(default: gate)")
    p_an.set_defaults(func=cmd_analyze)

    p_q = sub.add_parser(
        "quality",
        help="run a data-corruption campaign, print the quality report",
    )
    _add_mission_args(p_q)
    p_q.set_defaults(days=3)  # short mission by default; --days overrides
    p_q.add_argument("--campaign-seed", type=int, default=0,
                     help="seed of the randomized corruption campaign")
    p_q.add_argument("--clean", action="store_true",
                     help="no corruption: gate the pristine dataset instead "
                          "(every verdict should be 'ok')")
    p_q.add_argument("--json", action="store_true",
                     help="also dump the quality report as canonical JSON")
    p_q.set_defaults(func=cmd_quality)

    def _add_service_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--service", required=True, metavar="DIR",
                       help="fleet service home directory (holds the durable "
                            "registry, shared day store, and results)")

    def _add_serve_args(p: argparse.ArgumentParser) -> None:
        _add_service_arg(p)
        p.add_argument("--workers", type=int, default=2,
                       help="concurrent mission workers (default: 2)")
        p.add_argument("--queue-depth", type=int, default=256,
                       help="admission-control backlog limit: submissions "
                            "beyond this many in-flight jobs are rejected "
                            "with a retry-after hint (default: 256)")
        p.add_argument("--lease-s", type=float, default=30.0,
                       help="lease duration; a worker silent for this long "
                            "loses its job to the requeue sweep (default: 30)")
        p.add_argument("--max-attempts", type=int, default=3,
                       help="retry budget before a job is dead-lettered "
                            "(default: 3)")
        p.add_argument("--backoff-seed", type=int, default=0,
                       help="seed of the jittered retry backoff (default: 0)")
        p.add_argument("--job-timeout-s", type=float, default=None,
                       help="per-attempt deadline: past it the worker stops "
                            "renewing its lease so the job is reclaimed")
        p.add_argument("--chaos-kill-after", type=int, default=None,
                       metavar="N",
                       help="fault injection: SIGKILL this service process "
                            "after N durably acknowledged completions "
                            "(tier-2 chaos testing)")

    p_serve = sub.add_parser(
        "serve", help="run the mission fleet service until interrupted")
    _add_serve_args(p_serve)
    p_serve.add_argument("--drain", action="store_true",
                         help="exit once the registry holds no runnable work")
    p_serve.set_defaults(func=cmd_serve)

    p_drain = sub.add_parser(
        "drain", help="run the fleet service until the registry is empty")
    _add_serve_args(p_drain)
    p_drain.set_defaults(func=cmd_serve, drain=True)

    p_sub = sub.add_parser(
        "submit", help="queue a mission submission with the fleet service")
    _add_service_arg(p_sub)
    p_sub.add_argument("--days", type=int, default=14,
                       help="mission length in days (default: 14)")
    p_sub.add_argument("--seed", type=int, default=7, help="master RNG seed")
    p_sub.add_argument("--no-events", action="store_true",
                       help="disable the scripted mission events")
    p_sub.add_argument("--frame-dt", type=float, default=None,
                       help="sensing frame period in seconds (coarser is "
                            "faster; default: the paper's)")
    p_sub.add_argument("--quality", default="auto",
                       choices=("auto", "off", "gate", "strict"),
                       help="validating ingest gate mode (default: auto)")
    p_sub.add_argument("--tenant", default="",
                       help="tenant label for per-tenant service metrics")
    p_sub.set_defaults(func=cmd_submit)

    p_st = sub.add_parser(
        "status", help="job record or whole-fleet overview")
    _add_service_arg(p_st)
    p_st.add_argument("ref", nargs="?", default=None,
                      help="job id or submission fingerprint (or unique "
                           "prefix); omit for the fleet overview")
    p_st.set_defaults(func=cmd_status)

    p_res = sub.add_parser(
        "result", help="print the stored result of a completed job")
    _add_service_arg(p_res)
    p_res.add_argument("ref", help="job id or submission fingerprint")
    p_res.add_argument("--wait-s", type=float, default=None, metavar="S",
                       help="block up to S seconds for the job to finish")
    p_res.add_argument("--json", action="store_true",
                       help="dump the full result payload as JSON")
    p_res.set_defaults(func=cmd_result)

    args = parser.parse_args(argv)
    # An expected failure is one stderr line, like argparse's own errors,
    # never a traceback; 75 (EX_TEMPFAIL) tells schedulers to retry.
    # QueueFullError is a ServiceError, so it is caught first.
    try:
        return args.func(args)
    except (QueueFullError, JournalBusyError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 75
    except (ServiceError, ConfigError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
