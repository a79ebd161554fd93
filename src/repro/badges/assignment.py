"""Badge-to-astronaut assignment, including the deployment's anomalies.

The analysis pipeline *assumed* "that each device can be assigned to one
owner only", but reality disagreed twice:

* impaired astronaut A, unable to read the e-ink id display,
  "accidentally swapped their badge for one day with B";
* after C's departure, "astronaut F reused a badge that had belonged to
  deceased astronaut C" (F's own badge had failed).

``BadgeAssignment`` exposes both the naive static mapping and the true
per-day mapping, so the analytics can be run in "assumed" mode (and
mislabel those days, as the original pipeline initially did) or in
"actual" mode after the correction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MissionConfig
from repro.core.errors import ConfigError
from repro.crew.roster import Roster

#: Default reference badge id for a 6-person crew (6 primary + 6 backup).
REFERENCE_BADGE_ID = 12


@dataclass(frozen=True)
class BadgeAssignment:
    """Maps badges to wearers, day by day."""

    cfg: MissionConfig
    roster: Roster

    @property
    def reference_id(self) -> int:
        """Id of the reference badge (primaries + backups precede it)."""
        return 2 * self.roster.size

    def assumed(self) -> dict[int, str]:
        """The static badge->astronaut mapping the pipeline assumed."""
        return {i: astro for i, astro in enumerate(self.roster.ids)}

    def actual(self, day: int) -> dict[int, str]:
        """Who actually wore each badge on ``day``.

        Badges without a wearer that day (backups, retired badges, the
        deceased's badge before reuse) are simply absent from the map.
        """
        if day < 1:
            raise ConfigError("day must be >= 1")
        mapping = self.assumed()
        events = self.cfg.events
        if events is None:
            return mapping

        deceased = "C"
        if deceased in self.roster.ids:
            c_badge = self.roster.index(deceased)
            f_badge = self.roster.index("F") if "F" in self.roster.ids else None
            if self.cfg.event_active("death_day") and day > events.death_day:
                del mapping[c_badge]  # C is gone; badge idle at the station
            if (
                f_badge is not None
                and self.cfg.event_active("badge_reuse_day")
                and day >= events.badge_reuse_day
            ):
                # F's badge failed; F picked up C's.
                mapping.pop(f_badge, None)
                mapping[c_badge] = "F"

        if (
            self.cfg.event_active("badge_swap_day")
            and day == events.badge_swap_day
            and "A" in self.roster.ids
            and "B" in self.roster.ids
        ):
            a_badge, b_badge = self.roster.index("A"), self.roster.index("B")
            if mapping.get(a_badge) == "A" and mapping.get(b_badge) == "B":
                mapping[a_badge], mapping[b_badge] = "B", "A"
        return mapping

    def wearer_days(self, badge_id: int) -> dict[int, str]:
        """Per-day wearer of one badge across the instrumented mission."""
        out: dict[int, str] = {}
        for day in self.cfg.instrumented_days:
            wearer = self.actual(day).get(badge_id)
            if wearer is not None:
                out[day] = wearer
        return out

    def mislabeled_days(self) -> dict[int, dict[int, str]]:
        """Days where the assumed mapping is wrong: day -> {badge: actual}."""
        out: dict[int, dict[int, str]] = {}
        assumed = self.assumed()
        for day in self.cfg.instrumented_days:
            actual = self.actual(day)
            wrong = {
                badge: astro
                for badge, astro in actual.items()
                if assumed.get(badge) != astro
            }
            if wrong:
                out[day] = wrong
        return out
