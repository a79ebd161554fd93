"""The habitat message bus.

Support-system units (stream processors, the alert engine, the Earth
link, replicas) are :class:`Node` instances exchanging :class:`Message`
objects over a :class:`Network` that models per-link latency, loss, and
injected partitions — the substrate every Section-VI scenario runs on.

Accounting is exact: every :meth:`Network.send` increments ``sent``, and
each message ends up in exactly one of ``delivered`` or ``dropped``
(whatever the drop reason — crashed source, cut link, channel loss,
crashed/unknown destination), so ``sent == delivered + dropped`` holds
whenever no message is still in flight.  With :mod:`repro.obs` enabled
the same accounting is exported per message ``kind`` and drop reason,
plus a per-kind delivery-latency histogram and structured logs for every
fault-injection action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.core.engine import Event, Simulator
from repro.core.errors import ConfigError, ProtocolError
from repro.obs import _state as _obs
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.support.reliable import (
    ACK_KIND,
    DEFAULT_COOLDOWN_TIMEOUTS,
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_MAX_ATTEMPTS,
    CircuitBreaker,
    DeadLetter,
    PendingReliable,
    ReliableStats,
)

log = get_logger("repro.support.bus")


@dataclass(frozen=True)
class Message:
    """One bus message.

    ``msg_id`` is set only on reliable traffic (see
    :meth:`Node.send_reliable`): the receiver acknowledges it and uses it
    to deduplicate retransmissions; plain fire-and-forget messages carry
    ``None``.
    """

    src: str
    dst: str
    kind: str
    payload: Any = None
    msg_id: Optional[str] = None

    def __repr__(self) -> str:
        rel = f" id={self.msg_id}" if self.msg_id is not None else ""
        return f"<Message {self.src}->{self.dst} {self.kind}{rel}>"


class Network:
    """Point-to-point message delivery with latency, loss, partitions."""

    def __init__(
        self,
        sim: Simulator,
        default_latency_s: float = 0.02,
        loss_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if default_latency_s < 0:
            raise ConfigError("latency must be non-negative")
        if not 0.0 <= loss_prob < 1.0:
            raise ConfigError("loss_prob must be in [0, 1)")
        self.sim = sim
        self.default_latency_s = default_latency_s
        self.loss_prob = loss_prob
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._nodes: dict[str, "Node"] = {}
        self._link_latency: dict[tuple[str, str], float] = {}
        self._down_links: set[tuple[str, str]] = set()
        self._down_nodes: set[str] = set()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    # -- topology -------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Attach a node to the bus (names must be unique)."""
        if node.name in self._nodes:
            raise ConfigError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        node.network = self

    def node(self, name: str) -> "Node":
        try:
            return self._nodes[name]
        except KeyError:
            raise ProtocolError(f"no node named {name!r}") from None

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def set_link_latency(self, src: str, dst: str, latency_s: float) -> None:
        """Override latency for one directed link (e.g. the Earth link)."""
        if latency_s < 0:
            raise ConfigError("latency must be non-negative")
        self._link_latency[(src, dst)] = latency_s

    def latency(self, src: str, dst: str) -> float:
        """Effective one-way latency of a directed link."""
        return self._link_latency.get((src, dst), self.default_latency_s)

    def set_loss_prob(self, loss_prob: float) -> None:
        """Change the channel loss probability (lossy-window injection)."""
        if not 0.0 <= loss_prob < 1.0:
            raise ConfigError("loss_prob must be in [0, 1)")
        self.loss_prob = loss_prob
        log.info("loss-prob-set", loss_prob=loss_prob, sim_time=self.sim.now)

    # -- failure injection ------------------------------------------------

    def partition(self, src: str, dst: str, bidirectional: bool = True) -> None:
        """Cut a link."""
        self._down_links.add((src, dst))
        if bidirectional:
            self._down_links.add((dst, src))
        log.warning("link-partitioned", src=src, dst=dst,
                    bidirectional=bidirectional, sim_time=self.sim.now)

    def heal(self, src: str, dst: str, bidirectional: bool = True) -> None:
        """Restore a cut link."""
        self._down_links.discard((src, dst))
        if bidirectional:
            self._down_links.discard((dst, src))
        log.info("link-healed", src=src, dst=dst,
                 bidirectional=bidirectional, sim_time=self.sim.now)

    def crash(self, name: str) -> None:
        """Crash a node: it stops receiving (and should stop sending)."""
        node = self.node(name)
        self._down_nodes.add(name)
        node.crashed = True
        log.warning("node-crashed", node=name, sim_time=self.sim.now)
        node.on_crash()

    def is_down(self, name: str) -> bool:
        """Whether a node is currently crashed."""
        return name in self._down_nodes

    def recover(self, name: str) -> None:
        """Recover a crashed node.

        The node's :meth:`Node.on_recover` hook runs after the crashed
        flag clears, so stateful nodes can reset wall clocks (heartbeat
        staleness!) and restart their periodic work.
        """
        node = self.node(name)
        self._down_nodes.discard(name)
        node.crashed = False
        log.info("node-recovered", node=name, sim_time=self.sim.now)
        node.on_recover()

    # -- delivery ---------------------------------------------------------

    def _drop(self, message: Message, reason: str) -> None:
        """Count (and, with telemetry on, export and log) one dropped message."""
        self.dropped += 1
        if _obs.enabled:
            _metrics.counter(
                "bus.dropped", "messages dropped, by kind and reason"
            ).inc(kind=message.kind, reason=reason)
            log.debug("message-dropped", src=message.src, dst=message.dst,
                      kind=message.kind, reason=reason, sim_time=self.sim.now)

    def send(self, message: Message) -> None:
        """Queue a message for delivery (may be lost or blocked)."""
        self.sent += 1
        if _obs.enabled:
            _metrics.counter(
                "bus.sent", "messages handed to the bus, by kind"
            ).inc(kind=message.kind)
        if message.src in self._down_nodes:
            # A crashed node cannot transmit; the attempt still counts so
            # bus accounting stays exact across all drop reasons.
            self._drop(message, "src-crashed")
            return
        if (message.src, message.dst) in self._down_links:
            self._drop(message, "partitioned")
            return
        if self.loss_prob > 0 and self.rng.random() < self.loss_prob:
            self._drop(message, "loss")
            return
        latency = self._link_latency.get((message.src, message.dst), self.default_latency_s)
        self.sim.schedule(latency, self._deliver, message, latency)

    def _deliver(self, message: Message, latency: float = 0.0) -> None:
        if message.dst in self._down_nodes:
            self._drop(message, "dst-crashed")
            return
        node = self._nodes.get(message.dst)
        if node is None:
            self._drop(message, "no-such-node")
            return
        self.delivered += 1
        if _obs.enabled:
            _metrics.counter(
                "bus.delivered", "messages delivered, by kind"
            ).inc(kind=message.kind)
            _metrics.histogram(
                "bus.latency_s", "delivery latency seconds, by kind"
            ).observe(latency, kind=message.kind)
        node.on_message(message)

    def in_flight(self) -> int:
        """Messages queued on the simulator but not yet delivered/dropped."""
        return self.sent - self.delivered - self.dropped


class PeriodicTask:
    """Cancellable handle returned by :meth:`Node.every`."""

    __slots__ = ("cancelled", "_event")

    def __init__(self) -> None:
        self.cancelled = False
        self._event: Optional[Event] = None

    def cancel(self) -> None:
        """Stop the periodic callback.  Idempotent."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None


class Node:
    """Base class for support-system units.

    Besides fire-and-forget :meth:`send`, every node speaks the reliable
    protocol: :meth:`send_reliable` retries unacknowledged messages under
    exponential backoff with jitter until acked or dead-lettered, and the
    receive path acknowledges and deduplicates reliable messages before
    dispatch, so ``handle_<kind>`` methods stay idempotent under retry
    without any per-handler bookkeeping.
    """

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self.network: Optional[Network] = None
        self.crashed = False
        self.inbox_count = 0
        # -- reliable-delivery state --------------------------------------
        self._rel_seq = 0
        self._rel_pending: dict[str, PendingReliable] = {}
        self._rel_seen: set[str] = set()
        self._breakers: dict[str, CircuitBreaker] = {}
        self.dead_letters: list[DeadLetter] = []
        self.duplicates_suppressed = 0
        self.reliable = ReliableStats()

    def send(self, dst: str, kind: str, payload: Any = None) -> None:
        """Send a message over the bus (fire-and-forget)."""
        if self.network is None:
            raise ProtocolError(f"node {self.name!r} is not attached to a network")
        self.network.send(Message(src=self.name, dst=dst, kind=kind, payload=payload))

    # -- reliable delivery ------------------------------------------------

    def send_reliable(
        self,
        dst: str,
        kind: str,
        payload: Any = None,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        ack_timeout_s: Optional[float] = None,
        backoff_base_s: Optional[float] = None,
        use_breaker: bool = True,
    ) -> str:
        """Send with at-least-once delivery; returns the message id.

        The message is retransmitted on ack timeout with exponential
        backoff and jitter until acknowledged; after ``max_attempts`` it
        is appended to :attr:`dead_letters` — a reliable message is
        therefore *never* silently lost.  The receiver dedups by message
        id, so the remote handler runs at most once.  When the
        per-destination circuit breaker is open (the destination kept
        timing out), the send dead-letters immediately instead of
        queueing retries.

        Args:
            dst: destination node name.
            kind: message kind (dispatched as ``handle_<kind>`` remotely).
            payload: message payload.
            max_attempts: transmissions before dead-lettering.
            ack_timeout_s: ack wait per attempt; defaults to the link
                round-trip time plus slack.
            backoff_base_s: first retry backoff; defaults to the ack
                timeout.
            use_breaker: consult the per-destination circuit breaker.
        """
        if self.network is None:
            raise ProtocolError(f"node {self.name!r} is not attached to a network")
        if max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        now = self.sim.now
        if ack_timeout_s is None:
            rtt = self.network.latency(self.name, dst) + self.network.latency(dst, self.name)
            ack_timeout_s = rtt + 4 * self.network.default_latency_s + 0.1
        if backoff_base_s is None:
            backoff_base_s = ack_timeout_s
        msg_id = f"{self.name}#{self._rel_seq}"
        self._rel_seq += 1
        self.reliable.record_sent(kind)
        if _obs.enabled:
            _metrics.counter(
                "bus.reliable.sent", "reliable sends, by kind"
            ).inc(kind=kind)
        breaker = self._breakers.get(dst)
        if use_breaker and breaker is not None and not breaker.allow(now):
            self._dead_letter(
                PendingReliable(
                    msg_id=msg_id, dst=dst, kind=kind, payload=payload,
                    max_attempts=max_attempts, ack_timeout_s=ack_timeout_s,
                    backoff_base_s=backoff_base_s, first_sent_s=now,
                ),
                reason="circuit-open",
            )
            return msg_id
        pending = PendingReliable(
            msg_id=msg_id, dst=dst, kind=kind, payload=payload,
            max_attempts=max_attempts, ack_timeout_s=ack_timeout_s,
            backoff_base_s=backoff_base_s, first_sent_s=now,
        )
        self._rel_pending[msg_id] = pending
        self._transmit(pending)
        return msg_id

    def requeue_dead_letters(
        self,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> int:
        """Re-send abandoned reliable messages, oldest first.

        Drains the dead-letter queue in FIFO (dead-lettering) order and
        re-enters each message into the reliable path **with its
        original message id** — if the earlier failure lost only the
        *ack* (the receiver did handle the message), the receiver dedups
        the requeue instead of running the handler twice, preserving
        exactly-once dispatch across the requeue.  Messages whose
        destination breaker still refuses traffic (open and cooling
        down) stay in the queue for a later drain; the standard drain
        pattern is to call this after a blackout lifts and the breaker's
        half-open probe can succeed.

        Returns the number of messages re-entered into the reliable
        path.  Each counts as a fresh reliable send, so per-kind
        accounting keeps its invariant ``sent == acked + dead`` once the
        bus drains.
        """
        if self.network is None:
            raise ProtocolError(f"node {self.name!r} is not attached to a network")
        if max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        now = self.sim.now
        letters, self.dead_letters = self.dead_letters, []
        requeued = 0
        for letter in letters:
            breaker = self._breakers.get(letter.dst)
            if breaker is not None and not breaker.allow(now):
                self.dead_letters.append(letter)
                continue
            rtt = (self.network.latency(self.name, letter.dst)
                   + self.network.latency(letter.dst, self.name))
            ack_timeout_s = rtt + 4 * self.network.default_latency_s + 0.1
            pending = PendingReliable(
                msg_id=letter.msg_id, dst=letter.dst, kind=letter.kind,
                payload=letter.payload, max_attempts=max_attempts,
                ack_timeout_s=ack_timeout_s, backoff_base_s=ack_timeout_s,
                first_sent_s=now,
            )
            self._rel_pending[letter.msg_id] = pending
            self.reliable.record_sent(letter.kind)
            requeued += 1
            if _obs.enabled:
                _metrics.counter(
                    "bus.reliable.requeued", "dead letters re-sent, by kind"
                ).inc(kind=letter.kind)
            self._transmit(pending)
        if requeued:
            log.info("dead-letters-requeued", node=self.name, requeued=requeued,
                     remaining=len(self.dead_letters), sim_time=now)
        if _obs.enabled:
            _metrics.gauge(
                "bus.reliable.dlq_depth", "dead-letter queue depth, by node"
            ).set(len(self.dead_letters), node=self.name)
        return requeued

    def configure_breaker(
        self,
        dst: str,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = 60.0,
    ) -> CircuitBreaker:
        """Install (or replace) the circuit breaker for one destination."""
        breaker = CircuitBreaker(failure_threshold, cooldown_s)
        self._breakers[dst] = breaker
        return breaker

    def reliable_pending(self) -> int:
        """Reliable messages awaiting an ack or a retry."""
        return len(self._rel_pending)

    def _breaker_for(self, pending: PendingReliable) -> CircuitBreaker:
        breaker = self._breakers.get(pending.dst)
        if breaker is None:
            breaker = self._breakers[pending.dst] = CircuitBreaker(
                DEFAULT_FAILURE_THRESHOLD,
                DEFAULT_COOLDOWN_TIMEOUTS * pending.ack_timeout_s,
            )
        return breaker

    def _transmit(self, pending: PendingReliable) -> None:
        pending.attempts += 1
        if pending.attempts > 1:
            self.reliable.retries += 1
            if _obs.enabled:
                _metrics.counter(
                    "bus.reliable.retries", "reliable retransmissions, by kind"
                ).inc(kind=pending.kind)
        self.network.send(Message(
            src=self.name, dst=pending.dst, kind=pending.kind,
            payload=pending.payload, msg_id=pending.msg_id,
        ))
        pending.timer = self.sim.schedule(
            pending.ack_timeout_s, self._on_ack_timeout, pending.msg_id
        )

    def _on_ack_timeout(self, msg_id: str) -> None:
        pending = self._rel_pending.get(msg_id)
        if pending is None:
            return  # acked in the meantime
        self._breaker_for(pending).record_failure(self.sim.now)
        if pending.attempts >= pending.max_attempts:
            del self._rel_pending[msg_id]
            self._dead_letter(pending, reason="max-attempts")
            return
        jitter = self.network.rng.uniform(0.75, 1.25) if self.network is not None else 1.0
        pending.timer = self.sim.schedule(
            pending.backoff_s(jitter), self._retransmit, msg_id
        )

    def _retransmit(self, msg_id: str) -> None:
        pending = self._rel_pending.get(msg_id)
        if pending is not None:
            self._transmit(pending)

    def _on_ack(self, msg_id: str) -> None:
        pending = self._rel_pending.pop(msg_id, None)
        if pending is None:
            return  # duplicate ack
        if pending.timer is not None:
            pending.timer.cancel()
        self._breaker_for(pending).record_success(self.sim.now)
        self.reliable.record_acked(pending.kind)
        if _obs.enabled:
            _metrics.counter(
                "bus.reliable.acked", "reliable sends acknowledged, by kind"
            ).inc(kind=pending.kind)
            _metrics.histogram(
                "bus.reliable.delivery_s",
                "time from first send to ack, by kind",
            ).observe(self.sim.now - pending.first_sent_s, kind=pending.kind)

    def _dead_letter(self, pending: PendingReliable, reason: str) -> None:
        self.dead_letters.append(DeadLetter(
            msg_id=pending.msg_id, dst=pending.dst, kind=pending.kind,
            payload=pending.payload, attempts=pending.attempts,
            first_sent_s=pending.first_sent_s, dead_at_s=self.sim.now,
            reason=reason,
        ))
        self.reliable.record_dead(pending.kind)
        log.warning("dead-lettered", node=self.name, dst=pending.dst,
                    kind=pending.kind, msg_id=pending.msg_id, reason=reason,
                    attempts=pending.attempts, sim_time=self.sim.now)
        if _obs.enabled:
            _metrics.counter(
                "bus.reliable.dead_lettered",
                "reliable sends abandoned, by kind and reason",
            ).inc(kind=pending.kind, reason=reason)
            _metrics.gauge(
                "bus.reliable.dlq_depth", "dead-letter queue depth, by node"
            ).set(len(self.dead_letters), node=self.name)

    # -- receive path ------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Handle a delivered message; dispatches to ``handle_<kind>``.

        Reliable messages are acknowledged and deduplicated here, before
        dispatch, so handlers never see a retransmission twice.
        """
        if self.crashed:
            return
        if message.kind == ACK_KIND:
            self._on_ack(message.payload)
            return
        if message.msg_id is not None:
            # Re-ack duplicates too: the retransmission means the sender
            # never saw our first ack.
            self.send(message.src, ACK_KIND, message.msg_id)
            if message.msg_id in self._rel_seen:
                self.duplicates_suppressed += 1
                if _obs.enabled:
                    _metrics.counter(
                        "bus.reliable.duplicates",
                        "retransmissions suppressed by receiver dedup, by kind",
                    ).inc(kind=message.kind)
                return
            self._rel_seen.add(message.msg_id)
        self.inbox_count += 1
        handler = getattr(self, f"handle_{message.kind}", None)
        if handler is None:
            self.handle_default(message)
        else:
            handler(message)

    def handle_default(self, message: Message) -> None:
        """Fallback for unrecognized message kinds (override to log)."""

    # -- lifecycle hooks ---------------------------------------------------

    def on_crash(self) -> None:
        """Called by :meth:`Network.crash` after the node goes down."""

    def on_recover(self) -> None:
        """Called by :meth:`Network.recover` after the node comes back.

        Override to reset any wall-clock-relative state (heartbeat
        staleness trackers!) and restart periodic work — :meth:`every`
        tasks stop rescheduling themselves on crash and do not resume on
        their own.
        """

    def every(self, period_s: float, callback, *args) -> PeriodicTask:
        """Run ``callback`` periodically until cancelled or the node crashes.

        Once ``crashed`` is set the tick stops rescheduling itself, so a
        drained scenario's :meth:`Simulator.run` terminates; cancel the
        returned handle to stop it explicitly.
        """
        task = PeriodicTask()

        def tick() -> None:
            if self.crashed or task.cancelled:
                task._event = None
                return
            callback(*args)
            if not self.crashed and not task.cancelled:
                task._event = self.sim.schedule(period_s, tick)
            else:
                task._event = None

        task._event = self.sim.schedule(period_s, tick)
        return task
