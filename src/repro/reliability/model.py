"""The analytic reliability model: a CTMC fitted to a FaultCampaign.

Transition rates are derived *mechanically* from the campaign's own
parameters — no free knobs:

- every crashable node is an up/down :class:`TwoStateChain` with failure
  rate ``crashes_per_day / len(nodes)`` (the campaign targets a uniform
  random node per event) and repair rate ``1 / (mean_downtime_s + 1)``
  (the campaign draws ``Exp(mean) + 1`` second outages);
- links, lossy windows, and Earth-link blackouts get the same treatment
  from their respective rate/duration pairs;
- reliable-delivery success per message kind comes from the scenario's
  *known* workload (:data:`~repro.faults.scenario.BATCH_PERIOD_S`,
  :data:`~repro.faults.scenario.STATUS_PERIOD_S`) and transport tuning
  (attempt counts, ack timeouts, breaker cooldowns): a message dies when
  an outage window covers its retry span, so the expected dead count is
  the expected outage time on its path divided by the send period.

Confidence bands are quantiles of the finite horizon's own sampling
distributions (compound Poisson downtime, Erlang repair means, Poisson
counts) at the requested two-sided confidence — they narrow as the
horizon grows and are never hand-tuned per metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import MissionConfig
from repro.core.units import DAY, HOUR
from repro.faults.campaign import FaultCampaign
from repro.faults.plan import FaultPlan
from repro.faults.report import ReliabilityReport
from repro.faults.scenario import (
    BATCH_PERIOD_S,
    FAILOVER_TIMEOUT_S,
    HEARTBEAT_S,
    LINK_LATENCY_S,
    STATUS_PERIOD_S,
    run_support_scenario,
)
from repro.reliability.ctmc import (
    CTMC,
    TwoStateChain,
    compound_downtime_quantile,
    poisson_quantile,
    sample_mean_quantile,
)
from repro.reliability.prediction import (
    Band,
    DeliveryPrediction,
    Regime,
    ReliabilityPrediction,
    ValidationCheck,
    ValidationResult,
)

#: The campaign adds a one-second floor to every drawn window duration.
DURATION_SHIFT_S = 1.0

#: Default two-sided confidence of every band: 99.8% — the 3.1-sigma
#: equivalent, computed on the exact (skewed) finite-horizon
#: distributions rather than a normal approximation.
DEFAULT_CONFIDENCE = 0.998

#: Scenario transport tuning the delivery model needs (mirrors
#: ``run_support_scenario``'s reliable sends).
SUBMIT_MAX_ATTEMPTS = 5
STATUS_MAX_ATTEMPTS = 3
BREAKER_FAILURE_THRESHOLD_EARTH = 2

#: Send period of each reliable message kind in the scenario workload.
SEND_PERIOD_S = {"submit": BATCH_PERIOD_S, "status": STATUS_PERIOD_S}


def _shifted_exp_moments(mean_s: float) -> tuple[float, float]:
    """``E[D], E[D^2]`` for ``D = shift + Exp(mean)``."""
    m = mean_s
    e1 = m + DURATION_SHIFT_S
    e2 = m * m + e1 * e1  # Var = m^2
    return e1, e2


def _capped_shifted_exp_moments(mean_s: float, cap_s: float) -> tuple[float, float]:
    """``E[W], E[W^2]`` for ``W = min(shift + Exp(mean), cap)``."""
    if cap_s <= DURATION_SHIFT_S:
        return cap_s, cap_s * cap_s
    m = mean_s
    a = cap_s - DURATION_SHIFT_S
    decay = math.exp(-a / m)
    ey = m * (1.0 - decay)
    ey2 = 2.0 * m * m - 2.0 * m * (m + a) * decay
    e1 = DURATION_SHIFT_S + ey
    e2 = DURATION_SHIFT_S ** 2 + 2.0 * DURATION_SHIFT_S * ey + ey2
    return e1, e2


def _retry_span_s(max_attempts: int, ack_timeout_s: float) -> float:
    """Worst-case first-send-to-dead-letter span of one reliable message.

    ``max_attempts`` ack timeouts plus the exponential backoff ladder
    (base equal to the ack timeout, mean jitter 1.0):
    ``A t + t (2^(A-1) - 1)``.
    """
    return ack_timeout_s * (max_attempts + 2.0 ** (max_attempts - 1) - 1.0)


@dataclass(frozen=True)
class KillComponent:
    """One outage process that kills messages of a kind while active."""

    name: str
    #: Expected windows over the horizon.
    n_windows: float
    #: First/second moments of the *effective* kill-window length, s.
    e_w: float
    e_w2: float

    @property
    def expected_kill_s(self) -> float:
        return self.n_windows * self.e_w


class ReliabilityModel:
    """Closed-form reliability forecast for one :class:`FaultCampaign`.

    The model only sees bus-level fault classes (crash / link-flap /
    lossy / blackout) — exactly the classes that shape a
    :class:`~repro.faults.report.ReliabilityReport`'s availability,
    MTTR, and delivery metrics.  Sensing-level classes appear in the
    informational expected-fault table.

    ``cfg`` is the mission the support scenario runs (defaults to
    :meth:`default_config`); the model reads the Earth-link delay from
    it, as the scenario does.  The class attributes and :meth:`measure`
    / :meth:`compare` are what :func:`~repro.reliability.search.sweep_regimes`
    and :func:`~repro.reliability.validate.validate_campaign` use;
    :class:`~repro.reliability.coverage.CoverageModel` has the same ones.
    """

    #: The campaign the CLI predicts, validates, and sweeps around.
    reference = staticmethod(FaultCampaign.reference)
    #: Record type of one ranked sweep regime.
    regime = Regime
    #: The regime sweep's space, drawn in this order: log-uniform
    #: multipliers on rate and duration fields, rounded log-uniform
    #: multipliers on whole-mission counts, then fields drawn uniformly.
    swept_rates: dict[str, tuple[float, float]] = {
        "crashes_per_day": (0.25, 8.0),
        "mean_downtime_s": (0.25, 8.0),
        "flaps_per_day": (0.25, 8.0),
        "mean_flap_s": (0.25, 8.0),
        "lossy_windows_per_day": (0.25, 8.0),
        "mean_lossy_s": (0.25, 8.0),
        "blackouts_per_day": (0.25, 8.0),
        "mean_blackout_s": (0.25, 8.0),
    }
    swept_counts: dict[str, tuple[float, float]] = {}
    swept_values: dict[str, tuple[float, float]] = {"lossy_prob": (0.05, 0.9)}

    @staticmethod
    def default_config(campaign: FaultCampaign) -> MissionConfig:
        """The mission config the support scenario runs for ``campaign``.

        The scenario only reads days/seed/earth-link from the config;
        badges and scripted events play no part, so short campaign
        horizons must not trip their validation.
        """
        return MissionConfig(days=max(1, round(campaign.days)), seed=7,
                             badges_from_day=1, events=None)

    def __init__(self, campaign: FaultCampaign, cfg: MissionConfig | None = None):
        self.campaign = campaign
        self.cfg = cfg if cfg is not None else self.default_config(campaign)
        self.horizon_s = campaign.horizon_s

        c = campaign
        T = self.horizon_s
        self.days = T / DAY

        # -- per-component chains (rates in events per second) ------------
        n_nodes = len(c.nodes)
        self.node_chains: dict[str, TwoStateChain] = {}
        self.crash_mean_s = c.mean_downtime_s
        if n_nodes:
            lam = c.crashes_per_day / n_nodes / DAY
            mu = 1.0 / (c.mean_downtime_s + DURATION_SHIFT_S)
            for node in c.nodes:
                self.node_chains[node] = TwoStateChain(lam, mu)

        n_links = len(c.links)
        self.link_chains: dict[tuple[str, str], TwoStateChain] = {}
        if n_links:
            lam = c.flaps_per_day / n_links / DAY
            mu = 1.0 / (c.mean_flap_s + DURATION_SHIFT_S)
            for link in c.links:
                self.link_chains[link] = TwoStateChain(lam, mu)

        self.lossy_chain = TwoStateChain(
            c.lossy_windows_per_day / DAY,
            1.0 / (c.mean_lossy_s + DURATION_SHIFT_S),
        )
        self.blackout_chain = TwoStateChain(
            c.blackouts_per_day / DAY,
            1.0 / (c.mean_blackout_s + DURATION_SHIFT_S),
        )

        # -- scenario transport constants ---------------------------------
        rtt = 2.0 * LINK_LATENCY_S
        self.submit_ack_timeout_s = rtt + 4.0 * LINK_LATENCY_S + 0.1
        self.submit_span_s = _retry_span_s(
            SUBMIT_MAX_ATTEMPTS, self.submit_ack_timeout_s
        )
        earth_rtt = 2.0 * self.cfg.earth_link_delay_s
        self.status_ack_timeout_s = earth_rtt + 120.0
        self.status_span_s = _retry_span_s(
            STATUS_MAX_ATTEMPTS, self.status_ack_timeout_s
        )
        self.earth_breaker_cooldown_s = max(2.0 * HOUR, earth_rtt)
        #: The primary the relay targets while the service is healthy.
        self.serving_node = c.nodes[0] if c.nodes else None
        self.failover_window_s = FAILOVER_TIMEOUT_S + 2.0 * HEARTBEAT_S

    # -- workload ---------------------------------------------------------

    def n_sent(self, kind: str) -> int:
        """Messages of ``kind`` the scenario sends over the horizon.

        Matches the scenario's precomputed schedules exactly
        (``np.arange(period, horizon, period)``).
        """
        period = SEND_PERIOD_S[kind]
        return len(np.arange(period, self.horizon_s, period))

    # -- delivery ---------------------------------------------------------

    def _relay_link(self) -> tuple[str, str] | None:
        """The relay<->serving-primary link, if the campaign flaps it."""
        if self.serving_node is None:
            return None
        for link in self.link_chains:
            if set(link) == {"relay", self.serving_node}:
                return link
        return None

    def delivery_components(self, kind: str) -> list[KillComponent]:
        """The outage processes that dead-letter messages of ``kind``."""
        T = self.horizon_s
        comps: list[KillComponent] = []
        if kind == "submit":
            # The relay itself down: every batch sent meanwhile dies
            # (its retry span is seconds, outages are minutes).
            relay = self.node_chains.get("relay")
            if relay is not None:
                e1, e2 = _shifted_exp_moments(self.crash_mean_s)
                comps.append(KillComponent("relay-crash", relay.lam * T, e1, e2))
            # The serving primary down: batches die only until the
            # backup takes over, so the window is capped at the failover
            # timeout plus detection slack.
            serving = (
                self.node_chains.get(self.serving_node)
                if self.serving_node is not None else None
            )
            if serving is not None:
                e1, e2 = _capped_shifted_exp_moments(
                    self.crash_mean_s, self.failover_window_s
                )
                comps.append(KillComponent("primary-crash", serving.lam * T, e1, e2))
            # The relay->primary link flapped away.
            link = self._relay_link()
            if link is not None:
                chain = self.link_chains[link]
                e1, e2 = _shifted_exp_moments(self.campaign.mean_flap_s)
                comps.append(KillComponent("relay-link-flap", chain.lam * T, e1, e2))
            # Lossy windows: all attempts must be lost independently, so
            # the effective kill window shrinks by loss_prob^attempts.
            p_all = self.campaign.lossy_prob ** SUBMIT_MAX_ATTEMPTS
            if p_all > 0.0 and self.lossy_chain.lam > 0.0:
                e1, e2 = _shifted_exp_moments(self.campaign.mean_lossy_s)
                comps.append(KillComponent(
                    "lossy", self.lossy_chain.lam * T, e1 * p_all, e2 * p_all * p_all,
                ))
        elif kind == "status":
            # An Earth-link blackout kills statuses sent during the
            # window, plus the breaker's cooldown shadow and the retry
            # span of messages already in flight when it began.
            if self.blackout_chain.lam > 0.0:
                extra = self.earth_breaker_cooldown_s + self.status_span_s
                e1, e2 = _shifted_exp_moments(self.campaign.mean_blackout_s)
                comps.append(KillComponent(
                    "blackout",
                    self.blackout_chain.lam * T,
                    e1 + extra,
                    e2 + 2.0 * e1 * extra + extra * extra,
                ))
            p_all = self.campaign.lossy_prob ** STATUS_MAX_ATTEMPTS
            if p_all > 0.0 and self.lossy_chain.lam > 0.0:
                e1, e2 = _shifted_exp_moments(self.campaign.mean_lossy_s)
                comps.append(KillComponent(
                    "lossy", self.lossy_chain.lam * T, e1 * p_all, e2 * p_all * p_all,
                ))
        else:
            raise KeyError(f"unknown reliable kind {kind!r}")
        return comps

    def expected_dead(self, kind: str) -> float:
        kill_s = sum(c.expected_kill_s for c in self.delivery_components(kind))
        return min(float(self.n_sent(kind)), kill_s / SEND_PERIOD_S[kind])

    def delivery_prediction(self, kind: str, confidence: float) -> DeliveryPrediction:
        period = SEND_PERIOD_S[kind]
        n = self.n_sent(kind)
        comps = self.delivery_components(kind)
        mean_dead = sum(c.expected_kill_s for c in comps) / period
        # Compound-Poisson variance of the dead count: each window kills
        # ~W/period messages, plus half-a-message boundary rounding.
        var_dead = sum(
            c.n_windows * (c.e_w2 / period ** 2 + 0.25) for c in comps
        )
        z = _normal_quantile(0.5 + confidence / 2.0)
        spread = z * math.sqrt(var_dead)
        lo_dead = max(0.0, mean_dead - spread)
        hi_dead = min(float(n), mean_dead + spread)
        mean_dead = min(float(n), mean_dead)
        success = Band(
            mean=1.0 - mean_dead / n if n else 1.0,
            lo=1.0 - hi_dead / n if n else 1.0,
            hi=1.0 - lo_dead / n if n else 1.0,
        )
        return DeliveryPrediction(
            kind=kind, n_sent=n, expected_dead=mean_dead, success=success,
        )

    # -- availability / outages ------------------------------------------

    def availability_band(self, node: str, confidence: float) -> Band:
        chain = self.node_chains.get(node)
        if chain is None or chain.lam == 0.0:
            return Band(mean=1.0, lo=1.0, hi=1.0)
        T = self.horizon_s
        alpha = 1.0 - confidence
        n_windows = chain.lam * T  # Poisson mean of injected windows
        q_hi = compound_downtime_quantile(
            1.0 - alpha / 2.0, n_windows, self.crash_mean_s, DURATION_SHIFT_S
        )
        q_lo = compound_downtime_quantile(
            alpha / 2.0, n_windows, self.crash_mean_s, DURATION_SHIFT_S
        )
        return Band(
            mean=chain.expected_availability(T),
            lo=max(0.0, 1.0 - min(q_hi, T) / T),
            hi=min(1.0, 1.0 - q_lo / T),
        )

    def expected_closed_outages(self) -> float:
        """Expected within-horizon repaired outages, all nodes.

        Renewal count per node minus the chance the last outage is still
        open (right-censored) at the horizon.
        """
        total = 0.0
        for chain in self.node_chains.values():
            total += chain.expected_outages(self.horizon_s)
            total -= chain.steady_state_unavailability
        return max(0.0, total)

    def n_outages_band(self, confidence: float) -> Band:
        mean = self.expected_closed_outages()
        alpha = 1.0 - confidence
        return Band(
            mean=mean,
            lo=float(poisson_quantile(alpha / 2.0, mean)),
            hi=float(poisson_quantile(1.0 - alpha / 2.0, mean)),
        )

    def mttr_band(self, confidence: float, n_outages: int | None = None) -> Band | None:
        """The repair-time band, conditioned on ``n_outages`` samples.

        Without an observed count (pure prediction) the expected closed
        outage count is used; validation passes the report's actual
        count, which is the statistically tight conditioning.
        """
        if not self.node_chains:
            return None
        if n_outages is None:
            n_outages = max(1, round(self.expected_closed_outages()))
        if n_outages < 1:
            return None
        mean = self.crash_mean_s + DURATION_SHIFT_S
        alpha = 1.0 - confidence
        return Band(
            mean=mean,
            lo=sample_mean_quantile(
                alpha / 2.0, n_outages, self.crash_mean_s, DURATION_SHIFT_S
            ),
            hi=sample_mean_quantile(
                1.0 - alpha / 2.0, n_outages, self.crash_mean_s, DURATION_SHIFT_S
            ),
        )

    # -- system-level chain ----------------------------------------------

    def system_ctmc(self) -> CTMC | None:
        """The composed chain over (relay, svc-a, svc-b) up/down states."""
        chains = [
            (name, self.node_chains[name])
            for name in ("relay", *[n for n in self.campaign.nodes if n != "relay"])
            if name in self.node_chains
        ]
        if not chains:
            return None
        composed: CTMC | None = None
        for name, chain in chains:
            part = chain.to_ctmc(up=f"{name}:up", down=f"{name}:down")
            composed = part if composed is None else composed.compose(part)
        return composed

    def _system_operational(self, p_down: dict[str, float]) -> float:
        """P(relay up and at least one service replica up)."""
        relay_up = 1.0 - p_down.get("relay", 0.0)
        services = [n for n in self.campaign.nodes if n != "relay"]
        if not services:
            return relay_up
        all_services_down = 1.0
        for name in services:
            all_services_down *= p_down.get(name, 0.0)
        return relay_up * (1.0 - all_services_down)

    def system_availability(self, steady: bool = False, n_grid: int = 512) -> float:
        """Operational probability: steady-state or horizon-averaged.

        Component chains are independent, so the joint distribution is
        the product of the closed-form marginals; the horizon average
        integrates the transient on a fixed grid (deterministic).
        """
        if not self.node_chains:
            return 1.0
        if steady:
            p_down = {
                name: chain.steady_state_unavailability
                for name, chain in self.node_chains.items()
            }
            return self._system_operational(p_down)
        ts = (np.arange(n_grid) + 0.5) * (self.horizon_s / n_grid)
        acc = 0.0
        for t in ts:
            p_down = {
                name: 1.0 - chain.availability_at(float(t))
                for name, chain in self.node_chains.items()
            }
            acc += self._system_operational(p_down)
        return acc / n_grid

    # -- the full forecast ------------------------------------------------

    def expected_faults(self) -> dict[str, float]:
        return {
            kind: mean
            for kind, (mean, _exact) in expected_event_counts(self.campaign).items()
        }

    def predict(self, confidence: float = DEFAULT_CONFIDENCE) -> ReliabilityPrediction:
        availability = {
            node: self.availability_band(node, confidence)
            for node in self.campaign.nodes
        }
        steady = {
            node: chain.steady_state_availability
            for node, chain in self.node_chains.items()
        }
        delivery = {
            kind: self.delivery_prediction(kind, confidence)
            for kind in ("submit", "status")
        }
        return ReliabilityPrediction(
            horizon_s=self.horizon_s,
            confidence=confidence,
            availability=availability,
            steady_state_availability=steady,
            mttr_s=self.mttr_band(confidence),
            n_outages=self.n_outages_band(confidence) if self.node_chains else None,
            delivery=delivery,
            system_availability=(
                self.system_availability() if self.node_chains else None
            ),
            system_availability_steady=(
                self.system_availability(steady=True) if self.node_chains else None
            ),
            expected_faults=self.expected_faults(),
        )

    # -- fast path for the regime search ---------------------------------

    def score(self) -> tuple[float, float, float]:
        """``(badness, min_availability, delivery_loss)`` — means only.

        No quantile bisections: this is the closed-form objective the
        worst-case search evaluates thousands of times per second.
        """
        T = self.horizon_s
        min_avail = 1.0
        for chain in self.node_chains.values():
            min_avail = min(min_avail, chain.expected_availability(T))
        loss = 0.0
        total_sent = 0
        for kind in ("submit", "status"):
            n = self.n_sent(kind)
            loss += self.expected_dead(kind)
            total_sent += n
        delivery_loss = loss / total_sent if total_sent else 0.0
        system_unavail = 1.0 - (
            self.system_availability(steady=True) if self.node_chains else 1.0
        )
        badness = system_unavail + (1.0 - min_avail) + delivery_loss
        return badness, min_avail, delivery_loss

    # -- the empirical side ------------------------------------------------

    def measure(self, plan: FaultPlan) -> ReliabilityReport:
        """Run ``plan`` through the real support stack."""
        return run_support_scenario(self.cfg, plan)

    def compare(
        self,
        report: ReliabilityReport,
        confidence: float = DEFAULT_CONFIDENCE,
        plan: FaultPlan | None = None,
    ) -> ValidationResult:
        """Check one measured report against the model's bands.

        Pure function of ``(model, report)`` — no simulation, so it can also
        grade archived reports.  With the generated ``plan``, the expected
        per-kind fault counts are checked against the actual draws too.
        """
        checks = [
            ValidationCheck.of(f"availability[{node}]", report.availability[node],
                               self.availability_band(node, confidence))
            for node in sorted(report.availability)
        ]
        # MTTR: conditioned on the number of repairs the campaign actually
        # observed — the band is the sampling distribution of a mean of
        # n_outages (shifted) exponential repair draws.
        mttr_band = self.mttr_band(confidence, n_outages=max(1, report.n_outages))
        if mttr_band is not None:
            checks.append(ValidationCheck.of("mttr_s", report.mttr_s, mttr_band))
        if self.node_chains:
            checks.append(ValidationCheck.of(
                "n_outages", float(report.n_outages + report.n_censored_outages),
                self.n_outages_band(confidence)))
        for kind in ("submit", "status"):
            checks.append(ValidationCheck.of(
                f"delivery[{kind}]", report.delivery_success(kind),
                self.delivery_prediction(kind, confidence).success))
        if plan is not None:
            checks.extend(_event_count_checks(self.campaign, plan, confidence))

        return ValidationResult(
            campaign_seed=self.campaign.seed,
            horizon_s=self.horizon_s,
            confidence=confidence,
            checks=tuple(checks),
        )


#: Fault-class name -> the plan action its events carry, for counting a
#: generated plan's actual draws against :func:`expected_event_counts`.
EVENT_ACTIONS: dict[str, str] = {
    "crash": "crash",
    "link-flap": "link-down",
    "lossy": "lossy",
    "blackout": "blackout",
    "beacon-outage": "beacon-outage",
    "badge-battery": "badge-battery",
    "sdcard-cap": "sdcard-cap",
    "worker-crash": "worker-crash",
    "data-bitrot": "data-bitrot",
    "data-truncate": "data-truncate",
    "data-duplicate": "data-duplicate",
    "data-stuck": "data-stuck",
    "data-clock-skew": "data-clock-skew",
}


def expected_event_counts(campaign) -> dict[str, tuple[float, bool]]:
    """Per-kind ``(expected draws, exact?)`` for every active fault class.

    ``exact`` is True for the whole-mission *count* parameters the
    campaign draws verbatim (battery, SD-card, worker crashes, the five
    data-corruption kinds) and False for the Poisson *rate* classes —
    validation checks the former for equality and the latter against
    Poisson bands.
    """
    c = campaign
    days = c.days
    out: dict[str, tuple[float, bool]] = {}
    if c.nodes:
        out["crash"] = (c.crashes_per_day * days, False)
    if c.links:
        out["link-flap"] = (c.flaps_per_day * days, False)
    out["lossy"] = (c.lossy_windows_per_day * days, False)
    out["blackout"] = (c.blackouts_per_day * days, False)
    if c.n_beacons > 0:
        out["beacon-outage"] = (c.beacon_outages_per_day * days, False)
    if c.badge_ids:
        out["badge-battery"] = (float(c.battery_depletions), True)
        out["sdcard-cap"] = (float(c.sdcard_exhaustions), True)
        out["data-bitrot"] = (float(c.bitrot_days), True)
        out["data-truncate"] = (float(c.truncated_days), True)
        out["data-duplicate"] = (float(c.duplicated_days), True)
        out["data-stuck"] = (float(c.stuck_days), True)
        out["data-clock-skew"] = (float(c.clock_desyncs), True)
    out["worker-crash"] = (float(c.worker_crashes), True)
    return {k: v for k, v in out.items() if v[0] > 0.0}


def _event_count_checks(
    campaign: FaultCampaign,
    plan: FaultPlan,
    confidence: float,
) -> list[ValidationCheck]:
    """Expected-fault table as a *checked* prediction, per kind.

    The whole-mission count parameters (battery, SD-card, worker
    crashes, the data-corruption kinds) are drawn verbatim, so they must
    match exactly; the per-day rate classes are Poisson draws and get
    Poisson bands at the validation confidence.
    """
    alpha = 1.0 - confidence
    actual: dict[str, int] = {}
    for event in plan.events:
        actual[event.action] = actual.get(event.action, 0) + 1
    checks: list[ValidationCheck] = []
    for kind, (mean, exact) in expected_event_counts(campaign).items():
        if exact:
            band = Band(mean=mean, lo=mean, hi=mean)
        else:
            band = Band(
                mean=mean,
                lo=float(poisson_quantile(alpha / 2.0, mean)),
                hi=float(poisson_quantile(1.0 - alpha / 2.0, mean)),
            )
        checks.append(ValidationCheck.of(
            f"events[{kind}]", float(actual.get(EVENT_ACTIONS[kind], 0)), band))
    return checks


def _normal_quantile(p: float) -> float:
    """Acklam's rational approximation of the standard normal inverse CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > p_high:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
