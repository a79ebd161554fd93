"""Reliable-delivery state machines for the message bus.

The bus itself is fire-and-forget — loss, partitions, and crashes
silently drop messages (each drop *is* counted).  Habitat-critical
traffic (paper Section VI: alerts, mission-control commands, replica
updates) needs more: :meth:`repro.support.bus.Node.send_reliable` layers
acknowledgements, retries under exponential backoff with jitter, a
dead-letter queue, and receiver-side deduplication on top of the same
bus, so delivery is **exactly-once-or-dead-lettered** — never silent.

This module holds the pure state machines that layer uses; they have no
simulator or network dependency so they stay independently testable:

- :func:`backoff_delay_s` — the one exponential-backoff formula, shared
  with the fleet service's requeue policy;
- :class:`PendingReliable` — one in-flight reliable message on the
  sender (attempt count, backoff schedule, ack timer handle);
- :class:`DeadLetter` — a message the sender gave up on, with the
  reason (``max-attempts`` or ``circuit-open``);
- :class:`CircuitBreaker` — per-destination closed/open/half-open
  breaker that fast-fails sends to a destination that keeps timing out
  (the high-latency Earth link during a blackout);
- :class:`ReliableStats` — per-kind sent/acked/dead-lettered counters
  and derived delivery-success ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.errors import ConfigError

#: Reserved message kind carrying an acknowledgement (payload: msg_id).
ACK_KIND = "__ack__"

#: Give up on a reliable message after this many transmission attempts.
DEFAULT_MAX_ATTEMPTS = 6

#: Breaker: consecutive ack timeouts to a destination before opening.
DEFAULT_FAILURE_THRESHOLD = 4

#: Breaker: cooldown as a multiple of the ack timeout before probing.
DEFAULT_COOLDOWN_TIMEOUTS = 10.0


def backoff_delay_s(base_s: float, attempts: int, jitter: float) -> float:
    """Backoff after ``attempts`` tries: ``base_s * 2**(attempts-1) * jitter``.

    Each caller draws ``jitter`` from its own stream: the bus from the
    network RNG, the fleet service from its seeded requeue policy.
    ``attempts`` below 1 counts as 1.
    """
    return base_s * (2.0 ** max(0, attempts - 1)) * jitter


@dataclass
class PendingReliable:
    """Sender-side state for one in-flight reliable message."""

    msg_id: str
    dst: str
    kind: str
    payload: Any
    max_attempts: int
    ack_timeout_s: float
    backoff_base_s: float
    first_sent_s: float
    attempts: int = 0
    #: The scheduled ack-timeout (or retransmit) engine event.
    timer: Any = None

    def backoff_s(self, jitter: float) -> float:
        """Delay before the next retransmission.

        Exponential in the attempt number, scaled by ``jitter`` (drawn
        by the caller from the network RNG so retry storms desynchronize
        deterministically).
        """
        return backoff_delay_s(self.backoff_base_s, self.attempts, jitter)


@dataclass(frozen=True)
class DeadLetter:
    """A reliable message the sender abandoned (never silently lost)."""

    msg_id: str
    dst: str
    kind: str
    payload: Any
    attempts: int
    first_sent_s: float
    dead_at_s: float
    reason: str  # "max-attempts" | "circuit-open"


class CircuitBreaker:
    """Per-destination breaker: fail fast instead of queueing retries.

    Closed passes traffic; ``failure_threshold`` consecutive failures
    open it; after ``cooldown_s`` one half-open probe is allowed — its
    success closes the breaker, its failure re-opens it.  This is what
    keeps a 20-minute-latency Earth link blackout from pinning every
    habitat sender in retry loops (they dead-letter immediately and the
    DLQ can be drained once the link returns).
    """

    __slots__ = ("failure_threshold", "cooldown_s", "state", "opens",
                 "_failures", "_opened_at")

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = 60.0,
    ):
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ConfigError("cooldown_s must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.opens = 0
        self._failures = 0
        self._opened_at: Optional[float] = None

    def allow(self, now: float) -> bool:
        """Whether a send may be attempted at ``now``."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._opened_at is not None and now - self._opened_at >= self.cooldown_s:
                self.state = "half-open"
                return True  # the single probe
            return False
        return False  # half-open: probe already outstanding

    def record_success(self, now: float) -> None:
        self.state = "closed"
        self._failures = 0
        self._opened_at = None

    def record_failure(self, now: float) -> None:
        self._failures += 1
        if self.state == "half-open" or self._failures >= self.failure_threshold:
            if self.state != "open":
                self.opens += 1
            self.state = "open"
            self._opened_at = now
            self._failures = 0


@dataclass
class ReliableStats:
    """Per-kind reliable-delivery accounting for one sender."""

    sent: dict[str, int] = field(default_factory=dict)
    acked: dict[str, int] = field(default_factory=dict)
    dead: dict[str, int] = field(default_factory=dict)
    retries: int = 0

    def record_sent(self, kind: str) -> None:
        self.sent[kind] = self.sent.get(kind, 0) + 1

    def record_acked(self, kind: str) -> None:
        self.acked[kind] = self.acked.get(kind, 0) + 1

    def record_dead(self, kind: str) -> None:
        self.dead[kind] = self.dead.get(kind, 0) + 1

    def delivery_success(self, kind: str) -> Optional[float]:
        """Acked fraction of reliable sends of ``kind``.

        ``None`` when nothing of that kind was sent: "no traffic" must
        stay distinguishable from genuine perfect delivery.
        """
        sent = self.sent.get(kind, 0)
        if sent == 0:
            return None
        return self.acked.get(kind, 0) / sent

    def kinds(self) -> list[str]:
        return sorted(set(self.sent) | set(self.acked) | set(self.dead))

    def merge_into(self, totals: "ReliableStats") -> None:
        """Accumulate this sender's counters into fleet-wide ``totals``."""
        for kind, n in self.sent.items():
            totals.sent[kind] = totals.sent.get(kind, 0) + n
        for kind, n in self.acked.items():
            totals.acked[kind] = totals.acked.get(kind, 0) + n
        for kind, n in self.dead.items():
            totals.dead[kind] = totals.dead.get(kind, 0) + n
        totals.retries += self.retries
