"""Replaying a fault plan onto the running support stack.

The :class:`FaultInjector` schedules a plan's bus-level events on the
discrete-event simulator — node crash/restart, link flaps, lossy-channel
windows, Earth-link blackouts — against a live
:class:`~repro.support.bus.Network` (and optionally an
:class:`~repro.support.mission_control.EarthLink`), tracking per-node
downtime intervals so availability and MTTR can be computed afterwards.
Unknown targets are skipped and counted, so one plan can run against
differently-shaped stacks.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import Simulator
from repro.core.errors import ProtocolError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import _state as _obs
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.support.bus import Network
from repro.support.mission_control import EarthLink

log = get_logger("repro.faults.injector")


class FaultInjector:
    """Applies bus-level fault events to a network / Earth link."""

    def __init__(self, network: Network, earth_link: Optional[EarthLink] = None):
        self.network = network
        self.earth_link = earth_link
        self.injected = 0
        self.skipped = 0
        #: node -> list of (down_at, up_at | None) intervals, in order.
        self.downtime: dict[str, list[tuple[float, Optional[float]]]] = {}
        self._base_loss_prob = network.loss_prob
        self._lossy_depth = 0

    # -- scheduling -------------------------------------------------------

    def schedule(self, sim: Simulator, plan: FaultPlan) -> int:
        """Queue every bus-level event of ``plan`` on ``sim``.

        Returns the number of events scheduled.  Events in the past
        (before ``sim.now``) fire immediately.
        """
        scheduled = 0
        for event in plan.bus_events():
            sim.schedule_at(max(sim.now, event.time_s), self._apply, event)
            scheduled += 1
        return scheduled

    # -- application ------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        now = self.network.sim.now
        try:
            getattr(self, f"_do_{event.action.replace('-', '_')}")(event)
        except ProtocolError:
            # Target not present in this stack (campaign reuse): skip.
            self.skipped += 1
            log.info("fault-skipped", action=event.action, target=event.target,
                     sim_time=now)
            return
        self.injected += 1
        if _obs.enabled:
            _metrics.counter(
                "faults.injected", "fault events applied, by action"
            ).inc(action=event.action)

    def _do_crash(self, event: FaultEvent) -> None:
        node = event.target
        self.network.node(node)  # raises ProtocolError if unknown
        if self.network.is_down(node):
            return  # already down; overlapping windows collapse
        self.network.crash(node)
        self.downtime.setdefault(node, []).append((self.network.sim.now, None))
        if event.duration_s is not None:
            self.network.sim.schedule(
                event.duration_s, self._do_recover_target, node
            )

    def _do_recover(self, event: FaultEvent) -> None:
        self._do_recover_target(event.target)

    def _do_recover_target(self, node: str) -> None:
        if not self.network.is_down(node):
            return
        self.network.recover(node)
        intervals = self.downtime.get(node, [])
        if intervals and intervals[-1][1] is None:
            intervals[-1] = (intervals[-1][0], self.network.sim.now)

    def _do_link_down(self, event: FaultEvent) -> None:
        src, dst, both = event.link_endpoints()
        self.network.partition(src, dst, bidirectional=both)
        if event.duration_s is not None:
            self.network.sim.schedule(
                event.duration_s, self.network.heal, src, dst, both
            )

    def _do_link_up(self, event: FaultEvent) -> None:
        src, dst, both = event.link_endpoints()
        self.network.heal(src, dst, bidirectional=both)

    def _do_lossy(self, event: FaultEvent) -> None:
        self._lossy_depth += 1
        self.network.set_loss_prob(max(self.network.loss_prob, event.value))
        if event.duration_s is not None:
            self.network.sim.schedule(event.duration_s, self._end_lossy)

    def _end_lossy(self) -> None:
        self._lossy_depth = max(0, self._lossy_depth - 1)
        if self._lossy_depth == 0:
            self.network.set_loss_prob(self._base_loss_prob)

    def _do_blackout(self, event: FaultEvent) -> None:
        if self.earth_link is None:
            raise ProtocolError("no Earth link in this stack")
        self.earth_link.blackout()
        if event.duration_s is not None:
            self.network.sim.schedule(event.duration_s, self.earth_link.restore)

    # -- reliability inputs ----------------------------------------------
