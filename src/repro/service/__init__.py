"""repro.service: the fault-tolerant mission fleet service.

The long-running counterpart to calling :func:`repro.run_mission` by
hand (ROADMAP item 2): mission/ablation submissions go into a durable
SQLite registry, are deduplicated by their content-addressed submission
fingerprint, and drain through a supervised asyncio worker pool with
exactly-once execution per fingerprint — across duplicate submitters,
worker failures, and ``kill -9`` of the whole service.

Layering (each module depends only on those above it):

- :mod:`repro.service.errors` — the :class:`ServiceError` family;
- :mod:`repro.service.config` — :class:`ServiceConfig`, the service
  home directory layout;
- :mod:`repro.service.queue` — seeded-jitter :class:`BackoffPolicy`
  and admission accounting (pure state machines);
- :mod:`repro.service.registry` — :class:`MissionRegistry`, the durable
  WAL-journaled job store with the monotonic ``queued → leased →
  running → done|failed|dead`` state machine, lease protocol, and
  dead letters (the jobs in state ``dead``);
- :mod:`repro.service.worker` — one leased job through the mission
  engine, resuming from its checkpoint journal;
- :mod:`repro.service.service` — :class:`FleetService`, the supervised
  asyncio loop (self-leasing worker slots, heartbeats, recovery, probes);
- :mod:`repro.service.client` — :class:`FleetClient`, the thin
  registry-backed client the CLI wraps.

Quickstart::

    from repro import MissionConfig
    from repro.service import FleetClient, FleetService, ServiceConfig, serve

    client = FleetClient("fleet", create=True)
    receipt = client.submit(MissionConfig(days=3, seed=1))
    serve(ServiceConfig(root="fleet", n_workers=4), drain=True)
    payload = client.result(receipt.job_id)
"""

from repro.service.client import FleetClient, SubmitReceipt
from repro.service.config import DEFAULT_QUEUE_DEPTH, ServiceConfig
from repro.service.errors import (
    QueueFullError,
    RegistryUnavailable,
    ServiceError,
    StateTransitionError,
    UnknownJobError,
)
from repro.service.queue import BackoffPolicy
from repro.service.registry import JobRecord, MissionRegistry
from repro.service.service import FleetService, ServiceChaos, serve

__all__ = [
    "BackoffPolicy",
    "DEFAULT_QUEUE_DEPTH",
    "FleetClient",
    "FleetService",
    "JobRecord",
    "MissionRegistry",
    "QueueFullError",
    "RegistryUnavailable",
    "ServiceChaos",
    "ServiceConfig",
    "ServiceError",
    "StateTransitionError",
    "SubmitReceipt",
    "UnknownJobError",
    "serve",
]
