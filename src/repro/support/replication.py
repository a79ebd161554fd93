"""Unit replication with heartbeat failover.

The paper is explicit that habitat components "may fail and thus have to
be replicated so that a partial failure ... does not hinder the success
of the entire mission" — and equally explicit that the deployed system's
reference badge was *not* replicated ("the risk of its failure did not
warrant the effort necessary for implementing failover software").
:class:`ReplicatedService` provides what that deployment lacked: a
primary/backup pair with heartbeats, deterministic failover, and state
transfer; the ablation benchmark contrasts it with a single instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.engine import Simulator
from repro.core.errors import ConfigError
from repro.support.bus import Message, Network, Node


class Replica(Node):
    """One replica of a stateful service.

    State is an append-only list of accepted updates; the primary
    forwards each accepted update to its peer, and heartbeats let the
    backup detect a dead primary and take over.  Crash recovery restarts
    the heartbeat/monitor tasks, resets the peer-heartbeat clock (a
    stale clock would otherwise trigger an instant, false failover into
    split-brain), and requests a state sync from the peer to pick up
    updates accepted while this replica was down.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        peer: str,
        is_primary: bool,
        heartbeat_s: float = 1.0,
        failover_timeout_s: float = 3.5,
    ):
        super().__init__(name, sim)
        if failover_timeout_s <= heartbeat_s:
            raise ConfigError("failover timeout must exceed the heartbeat period")
        self.peer = peer
        self.is_primary = is_primary
        self.heartbeat_s = heartbeat_s
        self.failover_timeout_s = failover_timeout_s
        self.state: list[Any] = []
        self.last_peer_heartbeat = 0.0
        self.took_over_at: float | None = None
        self.rejected_updates = 0
        #: (sim_time, "take-over" | "yield") role changes, in order.
        self.transitions: list[tuple[float, str]] = []
        self._tasks: list = []
        self._stopped = False

    def start(self) -> None:
        """Begin heartbeating and monitoring the peer."""
        self._stopped = False
        self.last_peer_heartbeat = self.sim.now
        self._start_tasks()

    def stop(self) -> None:
        """Cancel the periodic protocol tasks for good (scenario teardown).

        A crash that outlasts the teardown still recovers during the
        drain that follows; the stopped replica must not restart its
        heartbeat then, or the drained queue never empties.
        """
        self._stopped = True
        self._cancel_tasks()

    def _cancel_tasks(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks = []

    def _start_tasks(self) -> None:
        self._cancel_tasks()
        self._tasks = [
            self.every(self.heartbeat_s, self._heartbeat),
            self.every(self.heartbeat_s, self._check_primary),
        ]

    def on_crash(self) -> None:
        self._cancel_tasks()

    def on_recover(self) -> None:
        # Reset the heartbeat clock BEFORE the monitor restarts: comparing
        # against the pre-crash timestamp would (wrongly) declare the peer
        # dead on the very first check.
        self.last_peer_heartbeat = self.sim.now
        if not self._stopped:
            self._start_tasks()
        self.send(self.peer, "sync_request")

    # -- client API --------------------------------------------------------

    def submit(self, update: Any) -> bool:
        """Accept an update if primary; replicate to the peer."""
        if self.crashed or not self.is_primary:
            self.rejected_updates += 1
            return False
        self.state.append(update)
        self.send(self.peer, "replicate", update)
        return True

    # -- protocol ------------------------------------------------------------

    def _heartbeat(self) -> None:
        self.send(self.peer, "heartbeat", self.sim.now)

    def _check_primary(self) -> None:
        if self.is_primary:
            return
        if self.sim.now - self.last_peer_heartbeat > self.failover_timeout_s:
            self.is_primary = True
            self.took_over_at = self.sim.now
            self.transitions.append((self.sim.now, "take-over"))

    def handle_heartbeat(self, message: Message) -> None:
        self.last_peer_heartbeat = self.sim.now
        # Split-brain resolution: if both believe they are primary once a
        # partition heals, the lexicographically smaller name yields.
        if self.is_primary and self.took_over_at is not None and self.name > message.src:
            self.is_primary = False
            self.took_over_at = None
            self.transitions.append((self.sim.now, "yield"))

    def handle_replicate(self, message: Message) -> None:
        self.state.append(message.payload)

    def handle_submit(self, message: Message) -> None:
        """Remote client write (see :meth:`submit`); rejected on backups."""
        self.submit(message.payload)

    def handle_sync_request(self, message: Message) -> None:
        """A recovering peer asks for the updates it missed."""
        self.send(message.src, "sync_state", list(self.state))

    def handle_sync_state(self, message: Message) -> None:
        """Adopt the peer's longer update log after recovery."""
        if len(message.payload) > len(self.state):
            self.state = list(message.payload)


@dataclass
class ReplicatedService:
    """A primary/backup pair attached to a network."""

    primary: Replica
    backup: Replica

    @classmethod
    def build(
        cls,
        network: Network,
        sim: Simulator,
        base_name: str = "svc",
        heartbeat_s: float = 1.0,
        failover_timeout_s: float = 3.5,
    ) -> "ReplicatedService":
        primary = Replica(f"{base_name}-a", sim, peer=f"{base_name}-b", is_primary=True,
                          heartbeat_s=heartbeat_s, failover_timeout_s=failover_timeout_s)
        backup = Replica(f"{base_name}-b", sim, peer=f"{base_name}-a", is_primary=False,
                         heartbeat_s=heartbeat_s, failover_timeout_s=failover_timeout_s)
        network.register(primary)
        network.register(backup)
        primary.start()
        backup.start()
        return cls(primary=primary, backup=backup)

    def current_primary(self) -> Replica | None:
        """The live replica currently acting as primary, if any."""
        candidates = [r for r in (self.primary, self.backup)
                      if r.is_primary and not r.crashed]
        return candidates[0] if candidates else None

    def submit(self, update: Any) -> bool:
        """Submit via whichever replica is primary now."""
        primary = self.current_primary()
        return primary.submit(update) if primary is not None else False
