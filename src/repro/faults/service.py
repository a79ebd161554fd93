"""Service-level crash injection.

The rest of :mod:`repro.faults` injects failures *into the mission* —
bus partitions, dead batteries, corrupted badge-days.  This module aims
at the layer above: the fleet service process itself
(:mod:`repro.service`), whose crash-survival contract (durable registry,
lease recovery, day-store resume) is exactly what the chaos suite must be
able to violate on demand.

:class:`ServiceChaos` is deterministic by construction — it keys on the
count of durably acknowledged completions, not on wall-clock timing —
so a chaos test can say "die after the third job" and assert exact
recovery behaviour instead of racing a timer against the drain.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigError
from repro.obs import get_logger

log = get_logger("repro.faults.service")


@dataclass(frozen=True)
class ServiceChaos:
    """Crash plan for one fleet-service process.

    Attributes:
        kill_after_completions: SIGKILL the whole service process the
            moment this many job completions have been durably
            acknowledged (``None`` disables).  The registry commit
            happens *before* the kill fires, mirroring the worst real
            ordering: state says done, process is gone mid-drain.
    """

    kill_after_completions: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.kill_after_completions is not None
                and self.kill_after_completions < 1):
            raise ConfigError("kill_after_completions must be >= 1 or None")

    def on_completion(self, completions: int) -> None:
        """Hook the service calls after each acknowledged completion."""
        if (self.kill_after_completions is not None
                and completions >= self.kill_after_completions):
            log.warning("chaos-self-sigkill", completions=completions)
            os.kill(os.getpid(), signal.SIGKILL)
