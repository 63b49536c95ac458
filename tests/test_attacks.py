"""Tests for the attack injection framework and the campaign harness."""

import re
from dataclasses import replace

import pytest

from repro.api import Experiment
from repro.attacks import (
    Attack,
    AttackOutcome,
    AttackResult,
    CampaignRunner,
    CrossSegmentProbe,
    DoSFloodAttack,
    ExfiltrationAttack,
    HijackedIPAttack,
    RelocationAttack,
    ReplayAttack,
    SensitiveRegisterProbe,
    SpoofingAttack,
)
from repro.attacks.base import issue_train
from repro.attacks.chains import BootRollbackChain, DescriptorHijackChain, FirmwareSabotageChain
from repro.scenarios import (
    ATTACK_KINDS,
    AttackSpec,
    ScenarioBuilder,
    get_scenario,
    instantiate_attacks,
    platform_factory_for,
)
from repro.soc.kernel import Simulator
from repro.soc.transaction import Step, TransactionStatus

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


class TestIssue:
    def test_issue_runs_one_step_to_completion(self, plain_platform):
        system = plain_platform
        system.bram.poke(0x40, b"\x01\x02\x03\x04")
        txn = system.issue(Step("cpu0", "read", 0x40))
        assert txn.status is TransactionStatus.COMPLETED
        assert txn.data == b"\x01\x02\x03\x04"
        system.issue(Step("cpu1", "write", 0x80, data=b"\xde\xad\xbe\xef"))
        assert system.bram.peek(0x80, 4) == b"\xde\xad\xbe\xef"

    def test_issue_train_fires_one_step_per_interval(self, plain_platform):
        system = plain_platform
        events_before = system.sim.events_processed
        txns = issue_train(system, [Step("cpu0", "read", 0x0)] * 20, interval=2)
        assert [txn.issued_at for txn in txns] == [2 * index for index in range(20)]
        assert all(txn.status is TransactionStatus.COMPLETED for txn in txns)
        assert len({txn.txn_id for txn in txns}) == 20
        assert system.sim.events_processed > events_before


class _ProbeTwice(Attack):
    """Two reads cpu2 may not make: both are blocked and alerted."""

    name = "probe_twice"
    goal = "read the dedicated IP twice"

    def attempt(self, system, security):
        base = system.config.ip_regs_base
        first = system.issue(Step("cpu2", "read", base))
        second = system.issue(Step("cpu2", "read", base + 4))
        return False, True, f"{first.status.value}/{second.status.value}", {"n": 2}


class TestAttackScoring:
    def test_run_counts_every_alert_raised_during_the_attempt(self, platform_factory):
        system, security = platform_factory(protected=True)
        system.issue(Step("cpu2", "read", system.config.ip_regs_base + 8))  # not the attack's
        before = len(security.monitor.alerts)
        result = _ProbeTwice().run(system, security)
        raised = security.monitor.alerts[before:]
        assert result.alerts == len(raised) >= 2 and result.detected
        assert result.detection_cycle == min(alert.cycle for alert in raised)
        assert result.detail == "blocked_at_master/blocked_at_master"
        assert result.extra == {"n": 2} and result.contained_at_interface

    def test_run_without_security_reports_no_alerts(self, plain_platform):
        result = _ProbeTwice().run(plain_platform, None)
        assert result.alerts == 0 and not result.detected and result.detection_cycle is None


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

    def test_cross_segment_probe_is_a_renamed_register_probe(self, platform_factory):
        probe = CrossSegmentProbe()
        assert isinstance(probe, SensitiveRegisterProbe)
        assert probe.name == "cross_segment_probe" != SensitiveRegisterProbe.name
        assert (probe.hijacked_master, probe.register_index, probe.secret_value) == (
            "dma", 0, 0x5EC2_E755
        )
        system, security = platform_factory(protected=True)
        result = probe.run(system, security)
        assert result.detail == "probe status blocked_at_master"
        assert result.extra["blocked_at_bridge"] is False

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

    def test_negative_interval_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="interval"):
            DoSFloodAttack(interval=-1)
        spec = figure1_spec(attacks=(AttackSpec("dos_flood", {"interval": -1}),))
        with pytest.raises(ValueError, match="interval"):
            instantiate_attacks(spec)


class TestMissingEndpoints:
    """An attack naming an endpoint or parameter the platform lacks fails
    with one line that names it and what exists."""

    def test_unknown_master(self):
        spec = replace(
            get_scenario("paper_baseline"),
            attacks=(AttackSpec("hijacked_ip_write", {"hijacked_master": "ghost"}),),
        )
        message = "no master named 'ghost'; known: ['cpu0', 'cpu1', 'cpu2', 'dma']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Experiment.from_spec(spec).run()

    @pytest.mark.parametrize(
        "chain",
        [
            FirmwareSabotageChain(device="ghost"),
            DescriptorHijackChain(ring="ghost"),
            BootRollbackChain(device="ghost"),
        ],
        ids=lambda chain: chain.name,
    )
    def test_chain_naming_an_unknown_ip(self, chain):
        built = ScenarioBuilder(get_scenario("paper_baseline")).build()
        message = "no IP named 'ghost'; known: ['ip0']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chain.run(built.system, built.security)

    def test_unknown_constructor_param(self):
        spec = figure1_spec(attacks=(AttackSpec("spoofing", {"bogus": 1}),))
        message = (
            "attack 'spoofing': SpoofingAttack.__init__() got an unexpected keyword "
            "argument 'bogus'"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            instantiate_attacks(spec)

    @pytest.mark.parametrize(
        "attack,message",
        [
            (
                AttackSpec("nope"),
                f"unknown attack kind 'nope'; known: {sorted(ATTACK_KINDS)}",
            ),
            (
                AttackSpec("spoofing", {"bogus": 1}),
                "attack 'spoofing': SpoofingAttack.__init__() got an unexpected "
                "keyword argument 'bogus'",
            ),
            (
                AttackSpec("hijacked_ip_write", {"hijacked_master": "ghost"}),
                "no master named 'ghost'; known: ['cpu0', 'cpu1', 'cpu2', 'dma']",
            ),
            (
                AttackSpec("replay", {"victim": "ghost"}),
                "no master named 'ghost'; known: ['cpu0', 'cpu1', 'cpu2', 'dma']",
            ),
            (
                AttackSpec("firmware_update_chain", {"device": "ghost"}),
                "no IP named 'ghost'; known: ['ip0']",
            ),
            (
                AttackSpec("descriptor_hijack_chain", {"ring": "ghost"}),
                "no IP named 'ghost'; known: ['ip0']",
            ),
        ],
        ids=["kind", "param", "hijacked_master", "victim", "device", "ring"],
    )
    def test_refused_before_anything_is_built(self, monkeypatch, attack, message):
        """The builder refuses the mix up front: no kernel is even created,
        so no workload event runs before the one-line error."""
        spec = replace(
            get_scenario("paper_baseline"),
            attacks=get_scenario("paper_baseline").attacks + (attack,),
        )

        def no_kernel(self, *args, **kwargs):
            pytest.fail("a kernel was created before the attack mix was checked")

        monkeypatch.setattr(Simulator, "__init__", no_kernel)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Experiment.from_spec(spec).run()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioBuilder(spec)

    @pytest.mark.parametrize(
        "scenario,attack,message",
        [
            (
                "minimal_1x1",
                AttackSpec("spoofing", {"victim": "cpu0"}),
                "attack 'spoofing' needs a slave of kind 'ddr'; 'minimal_1x1' has none",
            ),
            (
                "minimal_1x1",
                AttackSpec("replay", {"victim": "cpu0"}),
                "attack 'replay' needs a slave of kind 'ddr'; 'minimal_1x1' has none",
            ),
            (
                "minimal_1x1",
                AttackSpec("relocation", {"victim": "cpu0"}),
                "attack 'relocation' needs a slave of kind 'ddr'; 'minimal_1x1' has none",
            ),
            (
                "many_master_contention",
                AttackSpec("sensitive_register_probe", {"hijacked_master": "cpu0"}),
                "attack 'sensitive_register_probe' needs a slave of kind 'ip'; "
                "'many_master_contention' has none",
            ),
            (
                "many_master_contention",
                AttackSpec("hijacked_ip_write", {"hijacked_master": "cpu0"}),
                "attack 'hijacked_ip_write' needs a slave of kind 'ip'; "
                "'many_master_contention' has none",
            ),
            (
                "many_master_contention",
                AttackSpec("cross_segment_write_storm", {"hijacked_master": "cpu0"}),
                "attack 'cross_segment_write_storm' needs a slave of kind 'ip'; "
                "'many_master_contention' has none",
            ),
            (
                "dense_protection",
                AttackSpec("exfiltration"),
                "attack 'exfiltration' needs a master of kind 'dma'; "
                "'dense_protection' has none",
            ),
        ],
        ids=["spoofing", "replay", "relocation", "register_probe", "hijacked_write",
             "write_storm", "exfiltration"],
    )
    def test_refuses_a_device_kind_the_topology_lacks(self, monkeypatch, scenario, attack, message):
        """An attack that drives the primary DDR, the dedicated IP or the DMA
        engine directly is refused, before any kernel exists, on a topology
        without one."""
        spec = replace(get_scenario(scenario), attacks=(attack,))

        def no_kernel(self, *args, **kwargs):
            pytest.fail("a kernel was created before the attack mix was checked")

        monkeypatch.setattr(Simulator, "__init__", no_kernel)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Experiment.from_spec(spec).run()


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
