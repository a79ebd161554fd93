"""Hydration tracking: the paper's flagship integration example.

"A urine processor assembly combined with an identification system
(e.g., provided by wearable sociometric badges) and smart drinking mugs
... allow for tracking fluid loss and intake to warn astronauts against
dehydration."  Intake events come from smart mugs (kitchen visits),
loss events from the identified urine-processor uses (restroom visits)
plus insensible loss over time; the tracker raises a dehydration alert
when an astronaut's balance dips below threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import Simulator
from repro.core.errors import ConfigError
from repro.support.alerts import Alert
from repro.support.bus import Message, Node

#: Baseline insensible fluid loss (breath, skin), ml per hour.
INSENSIBLE_LOSS_ML_H = 60.0
#: Typical smart-mug intake event, ml.
MUG_SIP_ML = 220.0
#: Typical urine-processor event, ml.
URINE_EVENT_ML = 280.0


@dataclass(frozen=True)
class FluidEvent:
    """One identified intake or loss event."""

    time_s: float
    astro_id: str
    kind: str       # "intake" | "urine"
    volume_ml: float


@dataclass
class FluidState:
    """Running balance of one astronaut."""

    balance_ml: float = 0.0
    last_update_s: float = 0.0
    events: int = 0


class HydrationTracker(Node):
    """Integrates mug, urine-processor, and badge-identity streams."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        astronauts: list[str],
        deficit_alert_ml: float = -600.0,
        notify: list[str] | None = None,
    ):
        super().__init__(name, sim)
        if deficit_alert_ml >= 0:
            raise ConfigError("deficit_alert_ml must be negative")
        self.deficit_alert_ml = deficit_alert_ml
        self.notify = list(notify or [])
        self.states: dict[str, FluidState] = {a: FluidState() for a in astronauts}
        self.alerts: list[Alert] = []
        self._alerted: set[str] = set()

    # -- event intake -------------------------------------------------------

    def handle_fluid(self, message: Message) -> None:
        event: FluidEvent = message.payload
        self.ingest(event)

    def ingest(self, event: FluidEvent) -> None:
        """Apply one identified fluid event."""
        state = self.states.get(event.astro_id)
        if state is None:
            return  # unidentified user (badge not worn) -- can't attribute
        self._apply_insensible(event.astro_id, event.time_s)
        if event.kind == "intake":
            state.balance_ml += event.volume_ml
        elif event.kind == "urine":
            state.balance_ml -= event.volume_ml
        else:
            raise ConfigError(f"unknown fluid event kind {event.kind!r}")
        state.events += 1
        self._check(event.astro_id, event.time_s)

    # -- internals ------------------------------------------------------------

    def _apply_insensible(self, astro_id: str, time_s: float) -> None:
        state = self.states[astro_id]
        elapsed_h = max(time_s - state.last_update_s, 0.0) / 3600.0
        state.balance_ml -= INSENSIBLE_LOSS_ML_H * elapsed_h
        state.last_update_s = max(state.last_update_s, time_s)

    def _check(self, astro_id: str, time_s: float) -> None:
        state = self.states[astro_id]
        if state.balance_ml < self.deficit_alert_ml and astro_id not in self._alerted:
            self._alerted.add(astro_id)
            alert = Alert(
                time_s=time_s, severity="warning", kind="dehydration",
                subject=astro_id,
                detail=f"fluid balance {state.balance_ml:.0f} ml below threshold",
            )
            self.alerts.append(alert)
            for destination in self.notify:
                self.send(destination, "alert", alert)
        elif state.balance_ml >= 0 and astro_id in self._alerted:
            self._alerted.discard(astro_id)  # rehydrated; may alert again

    def balance(self, astro_id: str) -> float:
        """Current fluid balance of an astronaut, ml."""
        return self.states[astro_id].balance_ml


def fluid_events_from_truth(truth, day: int) -> list[FluidEvent]:
    """Derive mug/urine events from ground-truth kitchen/restroom visits.

    Each sufficiently long kitchen visit triggers a mug event; each
    restroom visit an identified urine-processor event.
    """
    import numpy as np

    events: list[FluidEvent] = []
    plan = truth.plan
    kitchen = plan.index_of("kitchen")
    restroom = plan.index_of("restroom")
    for astro in truth.roster.ids:
        trace = truth.trace(astro, day)
        room = trace.room
        for target, kind, volume in (
            (kitchen, "intake", MUG_SIP_ML),
            (restroom, "urine", URINE_EVENT_ML),
        ):
            inside = room == target
            if not inside.any():
                continue
            padded = np.concatenate([[False], inside, [False]])
            edges = np.flatnonzero(padded[1:] != padded[:-1])
            for start, end in zip(edges[0::2], edges[1::2]):
                if (end - start) * trace.dt >= 30.0:
                    events.append(FluidEvent(
                        time_s=trace.t0 + float(start) * trace.dt,
                        astro_id=astro, kind=kind, volume_ml=volume,
                    ))
    events.sort(key=lambda e: e.time_s)
    return events
