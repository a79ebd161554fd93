"""Queueing policy: seeded-jitter backoff and admission accounting.

Pure state machines with no database or event-loop dependency, mirroring
how :mod:`repro.support.reliable` keeps the bus retry logic independently
testable.  The registry and service import these; nothing here imports
them back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError
from repro.support.reliable import backoff_delay_s

#: Jitter multiplier range: requeue storms desynchronize without ever
#: collapsing a delay to zero.
JITTER_LOW, JITTER_HIGH = 0.5, 1.5


@dataclass
class BackoffPolicy:
    """Seeded exponential backoff for job requeues.

    The delay before attempt ``n`` retries is
    ``base * 2**(n-1) * U(0.5, 1.5)``, capped
    (:func:`~repro.support.reliable.backoff_delay_s`).  The jitter
    stream is seeded (the service uses seed 0), so a restarted service
    reproduces the same requeue schedule — chaos tests can assert on
    timing classes instead of racing them.
    """

    base_s: float = 0.25
    cap_s: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0:
            raise ConfigError("backoff base_s must be >= 0")
        if self.cap_s <= 0:
            raise ConfigError("backoff cap_s must be positive")
        self._rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 0xBACC0FF)))

    def delay_s(self, attempts: int) -> float:
        """Backoff before the next try, given ``attempts`` already made."""
        if self.base_s == 0:
            return 0.0
        jitter = float(self._rng.uniform(JITTER_LOW, JITTER_HIGH))
        return min(self.cap_s, backoff_delay_s(self.base_s, attempts, jitter))


#: Jobs in these states occupy backlog slots for admission control.
ACTIVE_STATES = ("queued", "failed", "leased", "running")
