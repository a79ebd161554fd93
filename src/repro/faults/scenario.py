"""The faulted support-stack scenario behind mission reliability runs.

Builds the Section-VI support system — message bus, primary/backup
replicated service, badge-data relay, and the 20-minute-delayed Earth
link — runs a mission-shaped workload over it (periodic reliable sensor
batches into the replicated service, reliable status uplinks to Earth,
fire-and-forget mission-control commands), replays the configured
:class:`~repro.faults.plan.FaultPlan` on top, and reduces the outcome to
a :class:`~repro.faults.report.ReliabilityReport`.

Everything is seeded off the mission config, so the same config (and
plan) produces byte-identical reports.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MissionConfig
from repro.core.engine import Simulator
from repro.core.rng import RngRegistry
from repro.core.units import DAY, HOUR
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.report import (
    ReliabilityReport,
    aggregate_delivery,
    availability_from_downtime,
)
from repro.obs import span
from repro.support.bus import Network, Node
from repro.support.mission_control import EarthLink
from repro.support.replication import ReplicatedService

#: Habitat-internal link latency for the scenario bus, seconds.
LINK_LATENCY_S = 0.05
#: Reliable sensor-batch cadence from the relay into the service.
BATCH_PERIOD_S = 600.0
#: Reliable habitat -> Earth status cadence.
STATUS_PERIOD_S = 2 * HOUR
#: Fire-and-forget mission-control command cadence.
COMMAND_PERIOD_S = 6 * HOUR
#: Replica heartbeat / failover tuning at mission timescales.
HEARTBEAT_S = 60.0
FAILOVER_TIMEOUT_S = 210.0


class Relay(Node):
    """The habitat-side collector pushing sensor batches to the service."""


def run_support_scenario(cfg: MissionConfig, plan: FaultPlan) -> ReliabilityReport:
    """Run the faulted support-system scenario for one mission config."""
    horizon = cfg.days * DAY
    rngs = RngRegistry(cfg.seed).spawn("faults")
    sim = Simulator()
    network = Network(sim, default_latency_s=LINK_LATENCY_S, rng=rngs.get("network"))
    link = EarthLink.build(network, sim, one_way_delay_s=cfg.earth_link_delay_s)
    service = ReplicatedService.build(
        network, sim, heartbeat_s=HEARTBEAT_S, failover_timeout_s=FAILOVER_TIMEOUT_S
    )
    relay = Relay("relay", sim)
    network.register(relay)

    # The Earth link is slow (40-minute RTT) and occasionally dark: trip
    # the breaker after two consecutive timeouts and retry after ~2 h.
    earth_rtt = 2 * cfg.earth_link_delay_s
    status_timeout_s = earth_rtt + 120.0
    link.habitat_agent.configure_breaker(
        "earth", failure_threshold=2, cooldown_s=max(2 * HOUR, earth_rtt)
    )

    injector = FaultInjector(network, earth_link=link)
    injector.schedule(sim, plan)

    def send_batch(k: int) -> None:
        primary = service.current_primary()
        target = primary.name if primary is not None else service.primary.name
        relay.send_reliable(target, "submit", f"batch-{k}", max_attempts=5)

    def send_status(k: int) -> None:
        link.habitat_agent.send_reliable(
            "earth", "status", f"status-{k}",
            max_attempts=3, ack_timeout_s=status_timeout_s,
        )

    # Finite, precomputed workload schedules keep the drained queue
    # terminating (only the replica heartbeats are unbounded).
    for k, t in enumerate(np.arange(BATCH_PERIOD_S, horizon, BATCH_PERIOD_S)):
        sim.schedule_at(float(t), send_batch, k)
    for k, t in enumerate(np.arange(STATUS_PERIOD_S, horizon, STATUS_PERIOD_S)):
        sim.schedule_at(float(t), send_status, k)
    for k, t in enumerate(np.arange(COMMAND_PERIOD_S, horizon, COMMAND_PERIOD_S)):
        sim.schedule_at(
            float(t), link.mission_control.issue, f"ops-topic-{k % 4}", f"action-{k}"
        )

    with span("faults.scenario", days=cfg.days, events=len(plan.events)):
        sim.run_until(horizon)
        # The primaries live at the horizon: a replica that recovers
        # during the drain below never hears its peer's take-over.
        primaries = [r.name for r in (service.primary, service.backup)
                     if r.is_primary and not r.crashed]
        # Stop the heartbeat loops, then drain in-flight retries/acks so
        # every reliable message resolves to acked or dead-lettered.
        service.primary.stop()
        service.backup.stop()
        sim.run()

    return _build_report(horizon, network, service, injector, primaries)


def _build_report(
    horizon: float,
    network: Network,
    service: ReplicatedService,
    injector: FaultInjector,
    primaries: list[str],
) -> ReliabilityReport:
    delivery, totals, duplicates, dead_letters, pending = aggregate_delivery(network)
    # Raw intervals, open ends intact: outages that never repaired within
    # the horizon (including recoveries that only fired during the
    # post-horizon drain) are right-censored, not fake short repairs.
    availability, mttr, n_outages, n_censored = availability_from_downtime(
        injector.downtime, network.nodes(), horizon
    )
    transitions = sorted(
        [(t, replica.name, what)
         for replica in (service.primary, service.backup)
         for t, what in replica.transitions],
        key=lambda item: (item[0], item[1]),
    )
    return ReliabilityReport(
        horizon_s=horizon,
        availability=availability,
        mttr_s=mttr,
        n_outages=n_outages,
        n_censored_outages=n_censored,
        delivery=delivery,
        retries=totals.retries,
        duplicates_suppressed=duplicates,
        dead_letters=dead_letters,
        pending=pending,
        bus_sent=network.sent,
        bus_delivered=network.delivered,
        bus_dropped=network.dropped,
        transitions=transitions,
        primary_at_end=primaries[0] if primaries else None,
        split_brain_at_end=len(primaries) > 1,
        faults_injected=injector.injected,
        faults_skipped=injector.skipped,
    )
