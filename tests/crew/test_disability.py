"""Tests for the ability-based design module."""

from repro.crew.disability import (
    AbilityProfile,
    AccessibilityAudit,
    interface_adaptations,
)
from repro.crew.roster import icares_roster


class TestAbilityProfile:
    def test_default_full_ability(self):
        abilities = AbilityProfile()
        assert abilities.vision == 1.0 and abilities.fine_motor == 1.0

    def test_impaired_profile(self):
        roster = icares_roster()
        abilities = AbilityProfile.from_profile(roster.profile("A"))
        assert abilities.vision < 0.5
        assert abilities.fine_motor < 0.5

    def test_unimpaired_profile(self):
        roster = icares_roster()
        abilities = AbilityProfile.from_profile(roster.profile("B"))
        assert abilities == AbilityProfile()


class TestAdaptations:
    def test_full_ability_needs_none(self):
        assert interface_adaptations(AbilityProfile()) == []

    def test_low_vision_replaces_visual_channels(self):
        adaptations = interface_adaptations(AbilityProfile(vision=0.2))
        devices = {a.device for a in adaptations}
        assert "e-ink id display" in devices
        assert "status LEDs" in devices

    def test_low_dexterity_replaces_buttons(self):
        adaptations = interface_adaptations(AbilityProfile(fine_motor=0.3))
        devices = {a.device for a in adaptations}
        assert "push buttons" in devices

    def test_every_adaptation_has_substitute(self):
        adaptations = interface_adaptations(
            AbilityProfile(vision=0.0, hearing=0.0, speech=0.0, fine_motor=0.0)
        )
        assert all(a.adaptation for a in adaptations)
        assert len(adaptations) == 6


class TestAudit:
    def test_flags_only_impaired(self):
        roster = icares_roster()
        audit = AccessibilityAudit.run(roster.profiles)
        assert set(audit.findings) == {"A"}

    def test_badge_swap_risk_names_a(self):
        """The e-ink-only badge id is exactly what caused the A/B swap."""
        roster = icares_roster()
        audit = AccessibilityAudit.run(roster.profiles)
        assert "e-ink id display" in {a.device for a in audit.findings["A"]}
