"""Analytic coverage model for the sensing-level fault classes.

PR 6 modeled the *bus*-level fault classes (crash, link-flap, lossy,
blackout) as CTMCs and predicted the ReliabilityReport in closed form.
This module is the same move one layer down: it derives, mechanically
from :class:`~repro.faults.campaign.FaultCampaign` parameters, what the
:mod:`repro.quality` gate will say about a mission's assembled
badge-days — the PR 5 *coverage* metric — with finite-horizon
confidence bands from the campaign's own sampling distributions.

The sensing classes differ from the bus classes in one structural way:
a badge-day is an absorbing unit of damage.  A data-corruption event
strikes one ``(badge, day)`` cell and its severity ``v`` is drawn
uniformly per event, so the natural model is not an up/down chain but a
*marking process* over the grid of badge-day cells:

- **Cell occupancy** — each of the ``N_k`` events of kind ``k``
  independently marks a uniformly chosen cell (probability ``u`` per
  specific existing cell, thinned by the kind's marking probability
  ``rho_k``).  The number of marked cells ``S`` has the classical
  occupancy moments ``E[S] = m (1 - p0)`` and
  ``Var S = m p0 (1 - p0) + m (m - 1)(p00 - p0^2)`` with
  ``p0 = prod_k (1 - u rho_k)^{N_k}`` and
  ``p00 = prod_k (1 - 2 u rho_k)^{N_k}`` — that is the ``ok`` verdict
  count, exactly.
- **Severity propagation** — per kind, the gate's response to a struck
  cell is a deterministic function of the event's severity draw plus
  the per-frame corruption lottery, so per-event moments of every gate
  statistic (masked frames per channel, repair counts, usable-frame
  loss, quarantine probability) are computed by direct quadrature over
  the severity distribution with the gate's exact integer semantics
  (``max(1, int(v * n))`` and friends).  Sums over events then give
  means and variances; bands are normal quantiles of those sums, except
  the inherently binomial counts (quarantines, clock resets) which get
  exact binomial quantiles.
- **Beacon outages** — outage windows are compound Poisson exactly like
  bus downtime; the predicted metric is *dead beacon-days* (instrumented
  ``(beacon, day)`` pairs with the beacon down during the day's sensing
  window — the columns the localizer masks), whose per-outage
  day-overlap count has a closed-form first moment and a
  quadrature-integrated second moment.

Battery and SD-card faults deliberately contribute **zero** to these
predictions: they clear ``active``/``worn`` flags in place
(`repro.exec.executor.degrade_day`), which the gate treats as
legitimate not-worn time — they appear only in the expected-event
table, and the validation harness checks exactly that.

Second-order effects (two events colliding on one cell, masked-frame
overlap between kinds) are deliberately ignored; at campaign-scale
event counts their probability is far inside the default 99.8% bands,
and the reference-campaign anchor tests pin that claim empirically.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.core.config import MissionConfig
from repro.core.units import DAY
from repro.faults.campaign import FaultCampaign
from repro.faults.plan import FaultPlan
from repro.quality.gate import QualityPolicy
from repro.quality.report import DataQualityReport
from repro.reliability.ctmc import binomial_quantile
from repro.reliability.model import (
    DEFAULT_CONFIDENCE,
    _event_count_checks,
    _normal_quantile,
    expected_event_counts,
)
from repro.reliability.prediction import (
    Band,
    CoveragePrediction,
    CoverageRegime,
    ValidationCheck,
    ValidationResult,
)

__all__ = [
    "CoverageModel",
    "DEFAULT_ACTIVE_FRACTION",
    "STUCK_MARK_PROB",
]

#: Fraction of daytime frames a primary badge spends ``active`` under
#: the wear model (paper: "84% of daytime"; measured 0.92 +/- 0.05 for
#: the reference mission — charging stints plus the odd dead tail).
#: Only masked-frame counts depend on it, and only linearly.
DEFAULT_ACTIVE_FRACTION = 0.92

#: Probability a stuck-sensor run overlaps at least one active frame
#: (only active frames are masked, so an all-inactive run leaves the
#: verdict ``ok``).  Runs are >= 84 frames while inactive stretches are
#: mostly short charging stints, so this is nearly 1.
STUCK_MARK_PROB = 0.98

#: Spread (std dev) of the *local* active fraction under a stuck run,
#: inflating the masked-stuck second moment beyond the day-level mean.
ACTIVE_FRACTION_SPREAD = 0.12

#: Bitrot strikes one of 7 float channels with one of 5 garbage values
#: per frame (35 equiprobable combos).  Per-channel masked weights out
#: of 35, as functions of the active fraction ``a``: the three NaN
#: combos mask only on active frames; ``voice_db`` lets -inf and -1e9
#: escape (only ``+inf`` and ``> level_max`` are impossible); the
#: coordinate/stability out-of-range combos are clamped, not masked.
_N_COMBOS = 35.0


def _int_band(mean: float, sigma: float, z: float,
              lo_cap: float = 0.0, hi_cap: Optional[float] = None) -> Band:
    """A normal band around an integer-valued count, rounded outward."""
    lo = max(lo_cap, math.floor(mean - z * sigma))
    hi = mean + z * sigma
    hi = math.ceil(hi) if hi_cap is None else min(hi_cap, math.ceil(hi))
    return Band(mean=mean, lo=float(lo), hi=float(hi))


class _KindMoments:
    """Per-event moments of one data-corruption kind's gate response."""

    def __init__(self) -> None:
        self.mark_prob = 1.0       # P(verdict leaves ``ok`` | hit)
        self.quarantine_prob = 0.0  # P(quarantined | hit)
        self.loss = (0.0, 0.0)      # usable-frame loss, day fraction
        self.channels: dict[str, tuple[float, float]] = {}
        self.repairs: dict[str, tuple[float, float]] = {}


class CoverageModel:
    """Closed-form coverage predictions for one fault campaign.

    ``cfg`` names the mission the campaign will strike (defaults to
    :meth:`default_config`); the model reads frame counts,
    crew size, and instrumented days from it and the event counts and
    severity distributions from the campaign, and mirrors the gate's
    thresholds from :class:`~repro.quality.gate.QualityPolicy` defaults.
    Its class attributes, :meth:`measure` and :meth:`compare` are the
    ones :class:`~repro.reliability.model.ReliabilityModel` has.
    """

    #: The campaign the CLI predicts, validates, and sweeps around.
    reference = staticmethod(FaultCampaign.coverage_reference)
    #: Record type of one ranked sweep regime.
    regime = CoverageRegime
    #: The regime sweep's space (see ``ReliabilityModel.swept_rates``):
    #: the beacon-outage rate and duration, the data-corruption counts
    #: and battery depletions.
    swept_rates: dict[str, tuple[float, float]] = {
        "beacon_outages_per_day": (0.25, 8.0),
        "mean_beacon_outage_s": (0.25, 8.0),
    }
    swept_counts: dict[str, tuple[float, float]] = {
        "bitrot_days": (0.25, 8.0),
        "truncated_days": (0.25, 8.0),
        "duplicated_days": (0.25, 8.0),
        "stuck_days": (0.25, 8.0),
        "clock_desyncs": (0.25, 8.0),
        "battery_depletions": (0.25, 8.0),
    }
    swept_values: dict[str, tuple[float, float]] = {}

    @staticmethod
    def default_config(campaign: FaultCampaign) -> MissionConfig:
        """The mission config the coverage validation harness runs.

        Matches the campaign horizon; ``frame_dt=60`` keeps the empirical
        gate run affordable (the model reads every frame count from the
        config, so predictions track whatever config is used).
        """
        return MissionConfig(
            days=max(1, int(round(campaign.days))),
            seed=7,
            crew_size=3,
            frame_dt=60.0,
            badges_from_day=1,
            events=None,
        )

    def __init__(self, campaign: FaultCampaign,
                 cfg: Optional[MissionConfig] = None, *,
                 active_fraction: float = DEFAULT_ACTIVE_FRACTION,
                 stuck_mark_prob: float = STUCK_MARK_PROB,
                 grid: int = 2048):
        self.campaign = campaign
        self.cfg = cfg if cfg is not None else self.default_config(campaign)
        self.horizon_s = campaign.horizon_s
        self.active_fraction = float(active_fraction)
        self.stuck_mark_prob = float(stuck_mark_prob)
        self._grid = int(grid)
        self._setup()

    # -- derived geometry -------------------------------------------------

    def _setup(self) -> None:
        cfg, c = self.cfg, self.campaign
        self.frames_per_day = cfg.frames_per_day
        #: Days an event draw can land on (``int(t // DAY) + 1``).
        self.days = max(1, int(round(c.days)))
        self.instrumented_days = [
            d for d in cfg.instrumented_days if 1 <= d <= self.days
        ]
        #: Badge-days the gate will see: primaries plus the reference badge.
        self.badge_days = (cfg.crew_size + 1) * len(self.instrumented_days)
        # Cells an event can damage: the campaign's badge_ids that the
        # mission actually assembles (primaries 0..crew-1 and the
        # reference badge 2*crew; events on other ids are no-ops).
        existing = set(range(cfg.crew_size)) | {2 * cfg.crew_size}
        n_pool = len(c.badge_ids)
        hit_badges = [b for b in c.badge_ids if b in existing]
        self.cells = len(hit_badges) * len(self.instrumented_days)
        if n_pool and self.days:
            self.p_hit = (len(hit_badges) / n_pool) \
                * (len(self.instrumented_days) / self.days)
            self.u_cell = 1.0 / (n_pool * self.days)
        else:
            self.p_hit = 0.0
            self.u_cell = 0.0
        self._kinds = self._kind_moments()

    def _severity(self, lo: float, hi: float) -> np.ndarray:
        """Midpoint grid over the kind's uniform severity range."""
        steps = (np.arange(self._grid) + 0.5) / self._grid
        return lo + (hi - lo) * steps

    @staticmethod
    def _moments(values: np.ndarray) -> tuple[float, float]:
        return float(values.mean()), float((values * values).mean())

    @staticmethod
    def _thinned(count1: float, count2: float, w: float) -> tuple[float, float]:
        """Moments of a Binomial(``count``, ``w``) thinning of a count."""
        return count1 * w, count2 * w * w + count1 * w * (1.0 - w)

    def _kind_moments(self) -> dict[str, _KindMoments]:
        """Quadrature over each kind's severity draw, with the exact
        integer semantics of :mod:`repro.faults.data` and the gate."""
        n = float(self.frames_per_day)
        a = self.active_fraction
        kinds: dict[str, _KindMoments] = {}

        # data-bitrot: max(1, int(v*n)) distinct frames each get one of
        # 35 (channel, garbage) combos; the gate masks, clamps, or
        # misses each depending on the combo and the frame's activeness.
        bitrot = _KindMoments()
        v = self._severity(0.02, 0.25)
        struck = np.maximum(1.0, np.floor(v * n))
        s1, s2 = self._moments(struck)
        w_mask = (18.0 + 3.0 * a) / _N_COMBOS
        m1, m2 = self._thinned(s1, s2, w_mask)
        bitrot.loss = (m1 / n, m2 / (n * n))
        for channel, w in {
            "accel_rms": (4.0 + a) / _N_COMBOS,
            "sound_db": (4.0 + a) / _N_COMBOS,
            "voice_db": (2.0 + a) / _N_COMBOS,
            "x": 2.0 / _N_COMBOS,
            "y": 2.0 / _N_COMBOS,
            "dominant_pitch_hz": 4.0 / _N_COMBOS,
        }.items():
            bitrot.channels[channel] = self._thinned(s1, s2, w)
        bitrot.repairs["masked-nan"] = self._thinned(s1, s2, 3.0 * a / _N_COMBOS)
        bitrot.repairs["masked-impossible"] = self._thinned(s1, s2, 18.0 / _N_COMBOS)
        bitrot.repairs["clamped"] = self._thinned(s1, s2, 6.0 / _N_COMBOS)
        # The first quarter of the struck frames also get room 127 —
        # always detected, which is what makes rho_bitrot exactly 1.
        bitrot.repairs["room-cleared"] = self._moments(
            np.maximum(1.0, np.floor(struck / 4.0))
        )
        kinds["data-bitrot"] = bitrot

        # data-truncate: keeps int(v*n) frames; the gate pads the rest
        # (repair counted even when the day then quarantines).
        truncate = _KindMoments()
        v = self._severity(0.2, 0.9)
        padded = n - np.floor(v * n)
        q_mask = padded / n > QualityPolicy.max_unusable_fraction
        truncate.quarantine_prob = float(q_mask.mean())
        truncate.loss = self._moments(np.where(q_mask, 1.0, padded / n))
        truncate.repairs["padded"] = self._moments(padded)
        kinds["data-truncate"] = truncate

        # data-duplicate: inserts max(1, int(v*n)) copied frames; the
        # gate trims the surplus — zero usable-frame loss.
        duplicate = _KindMoments()
        v = self._severity(0.05, 0.3)
        duplicate.repairs["deduplicated"] = self._moments(
            np.maximum(1.0, np.floor(v * n))
        )
        kinds["data-duplicate"] = duplicate

        # data-stuck: a latched run of max(1, int(v*n)) >= 84 frames,
        # always >= stuck_run_frames, masked where it overlaps active
        # time.  The local active fraction under the run is random; its
        # spread inflates the second moment.
        stuck = _KindMoments()
        v = self._severity(0.1, 0.5)
        run = np.maximum(1.0, np.floor(v * n))
        r1, r2 = self._moments(run)
        m1 = r1 * a
        m2 = r2 * (a * a + ACTIVE_FRACTION_SPREAD ** 2)
        stuck.mark_prob = self.stuck_mark_prob
        stuck.loss = (m1 / n, m2 / (n * n))
        stuck.channels["accel_rms"] = (m1, m2)
        stuck.repairs["masked-stuck"] = (m1, m2)
        kinds["data-stuck"] = stuck

        # data-clock-skew: |shift| >= 300 s against a 60 s tolerance —
        # always detected, always fully repaired, zero loss.
        clock = _KindMoments()
        clock.repairs["clock-reset"] = (1.0, 1.0)
        kinds["data-clock-skew"] = clock
        return kinds

    def _kind_counts(self) -> dict[str, int]:
        c = self.campaign
        if not c.badge_ids:
            return {}
        return {
            "data-bitrot": c.bitrot_days,
            "data-truncate": c.truncated_days,
            "data-duplicate": c.duplicated_days,
            "data-stuck": c.stuck_days,
            "data-clock-skew": c.clock_desyncs,
        }

    # -- aggregate moments ------------------------------------------------

    def _sum_moments(self, per_event: list[tuple[int, float, float]],
                     ) -> tuple[float, float]:
        """Mean and variance of a sum over independent events.

        Each entry is ``(count, m1, m2)`` — per-event conditional
        moments, diluted by the hit probability (a miss contributes 0).
        """
        mean = 0.0
        var = 0.0
        for count, m1, m2 in per_event:
            mean += count * self.p_hit * m1
            var += count * (self.p_hit * m2 - (self.p_hit * m1) ** 2)
        return mean, max(0.0, var)

    def _occupancy(self) -> tuple[float, float]:
        """Mean and variance of the number of *marked* badge-day cells."""
        m = self.cells
        if m == 0:
            return 0.0, 0.0
        p0 = 1.0
        p00 = 1.0
        for kind, count in self._kind_counts().items():
            rho = self._kinds[kind].mark_prob * self.u_cell
            p0 *= (1.0 - rho) ** count
            p00 *= (1.0 - 2.0 * rho) ** count
        mean = m * (1.0 - p0)
        var = m * p0 * (1.0 - p0) + m * (m - 1) * (p00 - p0 * p0)
        return mean, max(0.0, var)

    def _distinct_valid_pmf(self, n: int) -> list[float]:
        """Exact pmf of distinct valid cells struck by ``n`` event draws.

        Each draw lands on a specific valid cell with probability
        ``u_cell``; a draw on an already-struck cell (or outside the
        instrumented grid) adds nothing.  One O(n^2) pass over the
        draws.
        """
        top = min(n, self.cells)
        pmf = [0.0] * (top + 1)
        pmf[0] = 1.0
        for _ in range(n):
            nxt = [0.0] * (top + 1)
            for s, p in enumerate(pmf):
                if p <= 0.0:
                    continue
                grow = (self.cells - s) * self.u_cell
                nxt[s] += p * (1.0 - grow)
                if s + 1 <= top:
                    nxt[s + 1] += p * grow
            pmf = nxt
        return pmf

    @staticmethod
    def _pmf_quantile(pmf: list[float], q: float) -> int:
        """Smallest value whose cumulative probability reaches ``q``."""
        acc = 0.0
        for s, p in enumerate(pmf):
            acc += p
            if acc >= q:
                return s
        return len(pmf) - 1

    def _quarantine_binomial(self) -> tuple[int, float]:
        """(draw count, per-draw probability) of a quarantined cell."""
        counts = self._kind_counts()
        n_draws = counts.get("data-truncate", 0)
        p = self.p_hit * self._kinds["data-truncate"].quarantine_prob \
            if n_draws else 0.0
        return n_draws, p

    def _beacon_day_windows(self) -> tuple[list[float], float, float]:
        """Sensing-window starts, window length, horizon."""
        cfg = self.cfg
        starts = [
            (d - 1) * DAY + cfg.daytime_start_s for d in self.instrumented_days
        ]
        return starts, cfg.daytime_s, self.horizon_s

    def _beacon_mean_days(self) -> float:
        """Mean number of sensing days one beacon outage overlaps.

        An outage ``[t, t + d)`` with ``t ~ U(0, H)`` and
        ``d = 1 + Exp(mu)`` overlaps day window ``[s, s + W)`` iff
        ``t < s + W`` and ``t + d > s``; the t-measure of that set is
        ``W + min(s, d)``, giving this closed form.
        """
        starts, W, H = self._beacon_day_windows()
        mu = self.campaign.mean_beacon_outage_s
        return sum(
            (W + 1.0 + mu * (1.0 - math.exp(-(s - 1.0) / mu))) / H
            for s in starts
        )

    def _beacon_moments(self) -> tuple[float, float]:
        """Per-outage moments of the number of sensing days overlapped.

        The first is :meth:`_beacon_mean_days`; the second integrates
        the overlap count on a (t, d) grid.
        """
        starts, W, H = self._beacon_day_windows()
        mu = self.campaign.mean_beacon_outage_s
        if not starts:
            return 0.0, 0.0
        k1 = self._beacon_mean_days()
        # Second moment: 512 t-midpoints x 64 duration quantiles.
        t = (np.arange(512) + 0.5) * (H / 512)
        q = (np.arange(64) + 0.5) / 64
        d = 1.0 - mu * np.log1p(-q)
        hits = np.zeros((t.size, d.size))
        for s in starts:
            hits += (t[:, None] < s + W) & (t[:, None] + d[None, :] > s)
        k2 = float((hits * hits).mean())
        return k1, k2

    def dead_beacon_days_band(self, confidence: float = DEFAULT_CONFIDENCE,
                              ) -> Optional[Band]:
        """Instrumented (beacon, day) pairs lost to outages, with band.

        Compound Poisson: ``Poisson(rate * days)`` outages, each hitting
        a random count of sensing windows.
        """
        c = self.campaign
        if c.n_beacons <= 0 or c.beacon_outages_per_day <= 0.0:
            return None
        lam = c.beacon_outages_per_day * c.days
        k1, k2 = self._beacon_moments()
        z = _normal_quantile(0.5 + confidence / 2.0)
        cap = float(c.n_beacons * len(self.instrumented_days))
        return _int_band(lam * k1, math.sqrt(lam * k2), z, hi_cap=cap)

    # -- the full forecast ------------------------------------------------

    def expected_coverage(self) -> float:
        """Mean predicted coverage fraction (no band) — the fast path."""
        if self.badge_days == 0:
            return 1.0
        loss, _ = self._sum_moments([
            (count, self._kinds[kind].loss[0], self._kinds[kind].loss[1])
            for kind, count in self._kind_counts().items()
        ])
        return max(0.0, 1.0 - loss / self.badge_days)

    def predict(self, confidence: float = DEFAULT_CONFIDENCE) -> CoveragePrediction:
        z = _normal_quantile(0.5 + confidence / 2.0)
        alpha = 1.0 - confidence
        M = self.badge_days
        counts = self._kind_counts()

        # Coverage: 1 - (summed usable-frame loss) / badge-days.
        loss_mean, loss_var = self._sum_moments([
            (count, *self._kinds[kind].loss) for kind, count in counts.items()
        ])
        sigma = math.sqrt(loss_var)
        if M:
            coverage = Band(
                mean=min(1.0, max(0.0, 1.0 - loss_mean / M)),
                lo=min(1.0, max(0.0, 1.0 - (loss_mean + z * sigma) / M)),
                hi=min(1.0, max(0.0, 1.0 - (loss_mean - z * sigma) / M)),
            )
        else:
            coverage = Band(mean=1.0, lo=1.0, hi=1.0)

        # Verdict counts: occupancy gives marked cells; the truncate
        # binomial splits marked into quarantined vs repaired.
        s_mean, s_var = self._occupancy()
        n_ok = _int_band(M - s_mean, math.sqrt(s_var), z, hi_cap=float(M))
        n_draws, p_q = self._quarantine_binomial()
        if n_draws and 0.0 < p_q < 1.0:
            q_lo = float(binomial_quantile(alpha / 2.0, n_draws, p_q))
            q_hi = float(binomial_quantile(1.0 - alpha / 2.0, n_draws, p_q))
        else:
            q_lo = q_hi = float(round(n_draws * p_q))
        q_mean = n_draws * p_q
        q_var = n_draws * p_q * (1.0 - p_q)
        n_quarantined = Band(mean=q_mean, lo=q_lo, hi=q_hi)
        n_repaired = _int_band(
            s_mean - q_mean, math.sqrt(s_var + q_var), z, hi_cap=float(M)
        )

        # Masked frames per channel, summed over the striking kinds.
        channels: dict[str, Band] = {}
        for channel in ("accel_rms", "sound_db", "voice_db", "x", "y",
                        "dominant_pitch_hz"):
            entries = [
                (count, *self._kinds[kind].channels[channel])
                for kind, count in counts.items()
                if channel in self._kinds[kind].channels
            ]
            if not entries:
                continue
            mean, var = self._sum_moments(entries)
            channels[channel] = _int_band(mean, math.sqrt(var), z)

        # Repairs per kind.  One clock reset repairs a whole badge-day
        # however many desyncs compounded on it, so the observable count
        # is the number of *distinct* cells the draws struck — its exact
        # occupancy distribution, not Binomial(n, p_hit) (collisions
        # matter at high desync counts; the worst-regime replay caught
        # this).  The frame-count repairs get normal bands of their
        # quadrature moments.
        repairs: dict[str, Band] = {}
        repair_kinds: dict[str, list[tuple[int, float, float]]] = {}
        for kind, count in counts.items():
            for name, (m1, m2) in self._kinds[kind].repairs.items():
                repair_kinds.setdefault(name, []).append((count, m1, m2))
        for name in sorted(repair_kinds):
            if name == "clock-reset":
                pmf = self._distinct_valid_pmf(counts.get("data-clock-skew", 0))
                repairs[name] = Band(
                    mean=sum(s * p for s, p in enumerate(pmf)),
                    lo=float(self._pmf_quantile(pmf, alpha / 2.0)),
                    hi=float(self._pmf_quantile(pmf, 1.0 - alpha / 2.0)),
                )
                continue
            mean, var = self._sum_moments(repair_kinds[name])
            repairs[name] = _int_band(mean, math.sqrt(var), z)

        return CoveragePrediction(
            horizon_s=self.horizon_s,
            confidence=confidence,
            badge_days=M,
            coverage=coverage,
            n_ok=n_ok,
            n_repaired=n_repaired,
            n_quarantined=n_quarantined,
            masked_channels=channels,
            repairs=repairs,
            dead_beacon_days=self.dead_beacon_days_band(confidence),
            expected_faults={
                kind: mean
                for kind, (mean, _exact)
                in expected_event_counts(self.campaign).items()
            },
        )

    # -- fast path for the regime search ---------------------------------

    def score(self) -> tuple[float, float, float]:
        """``(badness, coverage, expected_quarantined)`` — means only.

        Badness is the predicted coverage loss plus the quarantined
        fraction of badge-days plus the dead-beacon-day fraction of
        instrumented beacon columns — every way this campaign destroys
        data, normalized to fractions so regimes are comparable.
        """
        coverage = self.expected_coverage()
        n_draws, p_q = self._quarantine_binomial()
        quarantined = n_draws * p_q
        badness = 1.0 - coverage
        if self.badge_days:
            badness += quarantined / self.badge_days
        c = self.campaign
        beacon_cols = c.n_beacons * len(self.instrumented_days)
        if beacon_cols and c.beacon_outages_per_day > 0.0:
            badness += min(1.0, c.beacon_outages_per_day * c.days
                           * self._beacon_mean_days() / beacon_cols)
        return badness, coverage, quarantined

    # -- the empirical side ------------------------------------------------

    def measure(self, plan: FaultPlan) -> DataQualityReport:
        """Strike a gated mission with ``plan``; the gate's report.

        The empirical side is the real thing end to end: the plan
        corrupts the assembled mission dataset and the quality gate
        judges every badge-day.
        """
        # Local import: the mission stack is heavy and only the coverage
        # harness needs it.
        from repro.experiments.mission import run_mission

        mission = run_mission(dataclasses.replace(self.cfg, fault_plan=plan),
                              quality="gate")
        return mission.quality

    def compare(
        self,
        report: DataQualityReport,
        confidence: float = DEFAULT_CONFIDENCE,
        plan: Optional[FaultPlan] = None,
    ) -> ValidationResult:
        """Check a measured DataQualityReport against the coverage model.

        Every coverage number the report carries is compared: the verdict
        counts, the coverage fraction, per-channel masked frames, per-kind
        repair counts.  Channels or repair kinds the model does not predict
        get a degenerate ``[0, 0]`` band, so an unmodeled gate response is a
        failed check, not a silent gap.  With the generated ``plan``, the
        dead-beacon-day count (a pure function of the plan) and the per-kind
        event draws are checked too.
        """
        prediction = self.predict(confidence)
        days = float(prediction.badge_days)
        checks = [
            ValidationCheck.of("badge_days", float(len(report.verdicts)),
                               Band(mean=days, lo=days, hi=days)),
            ValidationCheck.of("coverage", report.coverage(), prediction.coverage),
            ValidationCheck.of("verdicts[ok]", float(report.n_ok), prediction.n_ok),
            ValidationCheck.of("verdicts[repaired]", float(report.n_repaired),
                               prediction.n_repaired),
            ValidationCheck.of("verdicts[quarantined]", float(report.n_quarantined),
                               prediction.n_quarantined),
        ]
        zero = Band(mean=0.0, lo=0.0, hi=0.0)
        masked = report.masked_by_channel()
        for channel in sorted(set(prediction.masked_channels) | set(masked)):
            checks.append(ValidationCheck.of(
                f"masked[{channel}]", float(masked.get(channel, 0)),
                prediction.masked_channels.get(channel, zero)))
        repairs = report.repairs_total()
        for kind in sorted(set(prediction.repairs) | set(repairs)):
            checks.append(ValidationCheck.of(
                f"repairs[{kind}]", float(repairs.get(kind, 0)),
                prediction.repairs.get(kind, zero)))

        if plan is not None:
            if prediction.dead_beacon_days is not None:
                cfg = self.cfg
                dead = float(sum(
                    len(plan.dead_beacons_on_day(
                        day, cfg.daytime_start_s, cfg.daytime_s
                    ))
                    for day in self.instrumented_days
                ))
                checks.append(ValidationCheck.of(
                    "dead_beacon_days", dead, prediction.dead_beacon_days))
            checks.extend(_event_count_checks(self.campaign, plan, confidence))

        return ValidationResult(
            campaign_seed=self.campaign.seed,
            horizon_s=self.horizon_s,
            confidence=confidence,
            checks=tuple(checks),
        )
