"""Tests for the attack injection framework and the campaign harness."""

import pytest

from repro.attacks import (
    AttackOutcome,
    AttackResult,
    AttackerMaster,
    CampaignRunner,
    DoSFloodAttack,
    ExfiltrationAttack,
    HijackedIPAttack,
    RelocationAttack,
    ReplayAttack,
    SensitiveRegisterProbe,
    SpoofingAttack,
)
from repro.scenarios import platform_factory_for

from tests.conftest import build_figure1, figure1_spec


class TestAttackResult:
    @pytest.mark.parametrize(
        "achieved,detected,outcome",
        [
            (True, False, AttackOutcome.SUCCEEDED),
            (True, True, AttackOutcome.DETECTED_BUT_EFFECTIVE),
            (False, True, AttackOutcome.BLOCKED),
            (False, False, AttackOutcome.FAILED_SILENTLY),
        ],
    )
    def test_outcome_classification(self, achieved, detected, outcome):
        result = AttackResult(attack="x", goal="g", achieved_goal=achieved, detected=detected)
        assert result.outcome is outcome

    def test_describe(self):
        result = AttackResult(attack="spoofing", goal="g", achieved_goal=False,
                              detected=True, detection_cycle=99, alerts=2)
        text = result.describe()
        assert "spoofing" in text and "blocked" in text and "99" in text


class TestAttackerMaster:
    def test_injector_with_new_port(self, plain_platform):
        system = plain_platform
        attacker = AttackerMaster.with_new_port(system.sim, system.bus, "attacker")
        system.bram.poke(0x40, b"\x01\x02\x03\x04")
        attacker.inject_read(0x40)
        system.run()
        assert attacker.success_count() == 1
        assert attacker.leaked_data() == [b"\x01\x02\x03\x04"]

    def test_injector_write(self, plain_platform):
        system = plain_platform
        attacker = AttackerMaster.with_new_port(system.sim, system.bus)
        attacker.inject_write(0x80, b"\xde\xad\xbe\xef")
        system.run()
        assert system.bram.peek(0x80, 4) == b"\xde\xad\xbe\xef"

    def test_flood_schedules_requests(self, plain_platform):
        system = plain_platform
        attacker = AttackerMaster.with_new_port(system.sim, system.bus)
        attacker.flood(0x0, count=20, interval=2)
        system.run()
        assert attacker.stats["injected"] == 20
        assert attacker.success_count() == 20


class TestMemoryAttacks:
    def test_spoofing_succeeds_without_protection(self, platform_factory):
        system, _ = platform_factory(protected=False)
        result = SpoofingAttack().run(system, None)
        assert result.achieved_goal and not result.detected

    def test_spoofing_blocked_and_detected_with_protection(self, platform_factory):
        system, security = platform_factory(protected=True)
        result = SpoofingAttack().run(system, security)
        assert not result.achieved_goal
        assert result.detected
        assert result.outcome is AttackOutcome.BLOCKED

    def test_replay_blocked_with_protection(self, platform_factory):
        system, security = platform_factory(protected=True)
        result = ReplayAttack().run(system, security)
        assert not result.achieved_goal and result.detected

    def test_replay_succeeds_without_protection(self, platform_factory):
        system, _ = platform_factory(protected=False)
        assert ReplayAttack().run(system, None).achieved_goal

    def test_relocation_blocked_with_protection(self, platform_factory):
        system, security = platform_factory(protected=True)
        result = RelocationAttack().run(system, security)
        assert not result.achieved_goal and result.detected

    def test_relocation_requires_aligned_offsets(self):
        with pytest.raises(ValueError):
            RelocationAttack(source_offset=0x21)


class TestHijackAttacks:
    def test_probe_contained_at_interface(self, platform_factory):
        system, security = platform_factory(protected=True)
        result = SensitiveRegisterProbe().run(system, security)
        assert not result.achieved_goal
        assert result.contained_at_interface
        assert result.detected
        # The malicious transaction never reached the shared bus.
        assert "cpu2" not in system.bus.monitor.per_master

    def test_probe_succeeds_without_protection(self, platform_factory):
        system, _ = platform_factory(protected=False)
        result = SensitiveRegisterProbe().run(system, None)
        assert result.achieved_goal and not result.detected

    def test_malformed_write_blocked(self, platform_factory):
        system, security = platform_factory(protected=True)
        result = HijackedIPAttack().run(system, security)
        assert not result.achieved_goal and result.contained_at_interface

    def test_malformed_write_corrupts_unprotected_ip(self, platform_factory):
        system, _ = platform_factory(protected=False)
        assert HijackedIPAttack().run(system, None).achieved_goal

    def test_exfiltration_blocked_with_protection(self, platform_factory):
        system, security = platform_factory(protected=True)
        result = ExfiltrationAttack().run(system, security)
        assert not result.achieved_goal
        assert result.contained_at_interface
        assert result.extra["dma_blocked"]

    def test_exfiltration_succeeds_without_protection(self, platform_factory):
        system, _ = platform_factory(protected=False)
        result = ExfiltrationAttack().run(system, None)
        assert result.achieved_goal


class TestDoSAttack:
    def test_flood_saturates_unprotected_bus(self, platform_factory):
        system, _ = platform_factory(protected=False)
        result = DoSFloodAttack(n_requests=50).run(system, None)
        assert result.achieved_goal
        assert result.extra["reached_bus"] == 50

    def test_flood_throttled_by_firewall(self):
        system, security = build_figure1(flood_threshold=10)
        result = DoSFloodAttack(n_requests=100).run(system, security)
        assert result.detected
        assert not result.achieved_goal
        assert result.extra["dropped_at_interface"] > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DoSFloodAttack(n_requests=0)
        with pytest.raises(ValueError):
            DoSFloodAttack(success_fraction=0.0)


class TestCampaign:
    def test_requires_at_least_one_attack(self):
        with pytest.raises(ValueError):
            CampaignRunner([], platform_factory_for(figure1_spec()))

    def test_small_campaign_matrix(self):
        factory = platform_factory_for(figure1_spec(flood_threshold=20))
        campaign = CampaignRunner(
            [SpoofingAttack(), SensitiveRegisterProbe()], platform_factory=factory
        )
        report = campaign.run()
        assert report.n_attacks == 2
        assert report.prevention_rate() == 1.0
        assert report.detection_rate() == 1.0
        rows = report.as_table_rows()
        assert {row["attack"] for row in rows} == {"spoofing", "sensitive_register_probe"}
        for row in rows:
            assert row["unprotected"] == "succeeded"
            assert row["protected"] == "blocked"
        summary = report.summary()
        assert summary["attacks"] == 2 and summary["prevented"] == 2
