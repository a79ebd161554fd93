"""Ability-based design support (paper Section VI, "System Flexibility").

"Acknowledging diverse capabilities of users is one of the main lessons
learned during ICAres-1: unanticipated needs of the impaired astronaut A
resulted in various inconveniences and errors" — A swapped badges
because ids were shown on an e-ink display, and A's muffled microphone
and screen-reader audio confused the analyses.  This module models
capability profiles and derives the interface adaptations the paper
recommends ("informative light signals complemented by sounds, buttons
corresponding to voice commands").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crew.astronaut import Profile


@dataclass(frozen=True)
class AbilityProfile:
    """Sensory/motor capabilities relevant to habitat interfaces."""

    vision: float = 1.0      # 0 = blind, 1 = full
    hearing: float = 1.0
    speech: float = 1.0
    fine_motor: float = 1.0  # hand dexterity
    gross_motor: float = 1.0  # locomotion

    @classmethod
    def from_profile(cls, profile: Profile) -> "AbilityProfile":
        """Derive abilities from a behavioral profile.

        The ICAres-1 impaired astronaut was "visually impaired and had
        no left hand nor three fingers in the other palm".
        """
        if profile.impaired:
            return cls(vision=0.2, hearing=1.0, speech=1.0, fine_motor=0.3,
                       gross_motor=0.7)
        return cls()


@dataclass(frozen=True)
class InterfaceAdaptation:
    """One recommended device/interface adaptation."""

    device: str
    adaptation: str
    rationale: str


#: Which ability gates which interface channel (threshold below which an
#: alternative channel is required).
CHANNEL_REQUIREMENTS = {
    "e-ink id display": ("vision", 0.6),
    "status LEDs": ("vision", 0.5),
    "push buttons": ("fine_motor", 0.5),
    "touch panel": ("fine_motor", 0.6),
    "audible alarms": ("hearing", 0.5),
    "voice commands": ("speech", 0.5),
}

#: Substitute channel per inaccessible one.
CHANNEL_SUBSTITUTES = {
    "e-ink id display": "tactile id marker + audio announcement",
    "status LEDs": "spoken status via bone-conduction earpiece",
    "push buttons": "voice commands",
    "touch panel": "voice commands with confirmation tone",
    "audible alarms": "haptic wristband alerts",
    "voice commands": "large-format switches",
}


def interface_adaptations(abilities: AbilityProfile) -> list[InterfaceAdaptation]:
    """Adaptations required for a crew member's abilities."""
    out: list[InterfaceAdaptation] = []
    for channel, (ability, threshold) in sorted(CHANNEL_REQUIREMENTS.items()):
        level = getattr(abilities, ability)
        if level < threshold:
            out.append(
                InterfaceAdaptation(
                    device=channel,
                    adaptation=CHANNEL_SUBSTITUTES[channel],
                    rationale=f"{ability} {level:.1f} below required {threshold:.1f}",
                )
            )
    return out


@dataclass
class AccessibilityAudit:
    """Habitat-wide audit: who cannot use what, and the fixes."""

    findings: dict[str, list[InterfaceAdaptation]] = field(default_factory=dict)

    @classmethod
    def run(cls, profiles: tuple[Profile, ...]) -> "AccessibilityAudit":
        audit = cls()
        for profile in profiles:
            adaptations = interface_adaptations(AbilityProfile.from_profile(profile))
            if adaptations:
                audit.findings[profile.astro_id] = adaptations
        return audit
