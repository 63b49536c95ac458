"""Tests for the security manager (reactions/reconfiguration) and for the
security wiring of the Figure-1 platform."""

from dataclasses import replace

import pytest

from repro.core.alerts import SecurityAlert, SecurityMonitor, ViolationType
from repro.core.ciphering_firewall import LocalCipheringFirewall
from repro.core.local_firewall import LocalFirewall
from repro.core.manager import SecurityPolicyManager
from repro.core.policy import (
    ConfigurationMemory,
    ReactionPolicy,
    ReadWriteAccess,
    SecurityPolicy,
    default_policies,
)
from repro.core.secure import attach_security
from repro.crypto.keys import KeyStore
from repro.scenarios import ScenarioBuilder, get_scenario
from repro.scenarios.plan import (
    BridgeFirewallPlan,
    CipheringFirewallPlan,
    MasterFirewallPlan,
    SecurityPlan,
    SlaveFirewallPlan,
)
from repro.soc.kernel import Simulator
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.transaction import TransactionStatus

from tests.conftest import SMALL_WINDOW, figure1_spec


def make_manager(reaction=None, key_store=None):
    sim = Simulator()
    monitor = SecurityMonitor()
    manager = SecurityPolicyManager(sim, monitor, reaction=reaction, key_store=key_store)
    memory = ConfigurationMemory("cfg_x", capacity=4)
    memory.add(0x0, 0x100, SecurityPolicy(spi=1))
    firewall = LocalFirewall(sim, "lf_x", memory, monitor=monitor, protected_ip="cpu0")
    manager.register_firewall(firewall, guards_master="cpu0")
    return sim, monitor, manager, firewall


def alert(master="cpu0", cycle=1, violation=ViolationType.UNAUTHORIZED_READ):
    return SecurityAlert.for_violation(
        cycle=cycle, firewall="lf_x", master=master, violation=violation,
        address=0x0, txn_id=0,
    )


class TestSecurityPolicyManager:
    def test_quarantine_after_threshold(self):
        _, monitor, manager, firewall = make_manager(ReactionPolicy(quarantine_after=3))
        for cycle in range(2):
            monitor.raise_alert(alert(cycle=cycle))
        assert not firewall.quarantined
        monitor.raise_alert(alert(cycle=3))
        assert firewall.quarantined
        assert manager.summary()["violations_by_master"] == {"cpu0": 3}
        assert any(event.kind == "quarantine" for event in manager.reactions)

    def test_release_quarantine(self):
        _, monitor, manager, firewall = make_manager(ReactionPolicy(quarantine_after=1))
        monitor.raise_alert(alert())
        assert firewall.quarantined
        assert manager.release("cpu0")
        assert not firewall.quarantined

    def test_quarantine_unknown_master_is_noop(self):
        _, _, manager, _ = make_manager()
        assert not manager.quarantine("cpu9")
        assert not manager.release("cpu9")

    def test_reconfigure_policy(self):
        _, _, manager, firewall = make_manager()
        tightened = SecurityPolicy(spi=2, rwa=ReadWriteAccess.READ_ONLY)
        assert manager.reconfigure_policy("lf_x", 0x0, tightened)
        assert firewall.config_memory.lookup(0x0).rwa is ReadWriteAccess.READ_ONLY
        assert not manager.reconfigure_policy("lf_x", 0x999, tightened)

    def test_zeroise_keys_on_critical_integrity_alert(self):
        keys = KeyStore()
        keys.install(1, bytes(16))
        keys.lock()
        _, monitor, manager, _ = make_manager(
            ReactionPolicy(zeroise_keys_on_critical=True), key_store=keys
        )
        monitor.raise_alert(alert(violation=ViolationType.INTEGRITY_FAILURE))
        assert len(keys) == 0
        assert keys.locked  # lock state restored

    def test_zeroise_without_key_store(self):
        _, _, manager, _ = make_manager()
        assert not manager.zeroise_keys()

    def test_reaction_latency(self):
        sim, monitor, manager, _ = make_manager(ReactionPolicy(quarantine_after=1))
        assert manager.reaction_latency() is None
        monitor.raise_alert(alert(cycle=0))
        assert manager.reaction_latency() == 0
        summary = manager.summary()
        assert summary["violations_by_master"] == {"cpu0": 1}
        assert summary["reactions"][0]["kind"] == "quarantine"


class TestDefaultPolicies:
    def test_policy_set_shape(self):
        policies = default_policies()
        assert not policies["ddr_plain"].needs_ciphering
        assert policies["ip_registers"].allowed_formats == frozenset({4})
        assert policies["internal_readonly"].rwa is ReadWriteAccess.READ_ONLY
        # SPIs are unique.
        spis = [p.spi for p in policies.values()]
        assert len(spis) == len(set(spis))


@pytest.mark.parametrize(
    "scenario, plan, kind, missing, known",
    [
        ("paper_baseline", SecurityPlan(masters=[MasterFirewallPlan("cpu9")]),
         "master", "cpu9", "cpu0"),
        ("paper_baseline", SecurityPlan(slaves=[SlaveFirewallPlan("bram_typo")]),
         "slave", "bram_typo", "bram"),
        ("two_segment_dma_isolation",
         SecurityPlan(bridges=[BridgeFirewallPlan("br9")], placement="bridge"),
         "bridge", "br9", "br_io"),
        ("paper_baseline", SecurityPlan(ciphering=[CipheringFirewallPlan("ddr9")]),
         "memory", "ddr9", "ddr"),
    ],
    ids=["master", "slave", "bridge", "memory"],
)
def test_attach_security_rejects_plans_naming_missing_endpoints(
    scenario, plan, kind, missing, known
):
    """A plan entry for an endpoint the platform lacks is an error, never a
    silently unprotected interface."""
    system = ScenarioBuilder(get_scenario(scenario)).build(protected=False).system
    with pytest.raises(ValueError, match=f"unknown {kind} '{missing}'; known: ") as excinfo:
        attach_security(system, plan)
    assert repr(known) in str(excinfo.value)


class TestSecurePlatform:
    def test_firewall_placement(self, secured):
        system, security = secured
        # One LF per master (3 CPUs + DMA), one per internal slave (BRAM, IP).
        assert set(security.master_firewalls) == {"cpu0", "cpu1", "cpu2", "dma"}
        assert set(security.slave_firewalls) == {"bram", "ip0"}
        assert isinstance(security.ciphering_firewall, LocalCipheringFirewall)
        assert len(security.all_firewalls) == 7
        # Figure 1's firewall internals: every LF has its LFCB, Security
        # Builder and Firewall Interface; only the LCF adds the CC and IC.
        for firewall in security.all_firewalls:
            assert firewall.communication_block is not None
            assert firewall.security_builder is not None
            assert firewall.firewall_interface is not None
        assert all(type(fw) is LocalFirewall for fw in security.master_firewalls.values())
        lcf = security.ciphering_firewall
        assert lcf.confidentiality_core is not None and lcf.integrity_core is not None

    def test_ports_carry_the_filters(self, secured):
        system, security = secured
        for name, firewall in security.master_firewalls.items():
            assert firewall in system.master_ports[name].filters
        assert security.ciphering_firewall in system.slave_ports["ddr"].filters

    def test_key_store_locked_after_setup(self, secured):
        _, security = secured
        assert security.key_store.locked
        assert len(security.key_store) == 2

    def test_partial_protection_options(self):
        spec = figure1_spec()
        topology = replace(
            spec.topology,
            masters=tuple(replace(m, firewall=False) for m in spec.topology.masters),
            slaves=tuple(replace(s, firewall=s.kind != "ddr") for s in spec.topology.slaves),
        )
        security = ScenarioBuilder(replace(spec, topology=topology)).build().security
        assert not security.master_firewalls
        assert security.ciphering_firewall is None
        assert security.slave_firewalls

    def test_dma_not_allowed_on_ip_registers(self, secured):
        system, security = secured
        finished = []
        system.dma.kickoff(system.config.ip_regs_base, system.config.ddr_base + 0x4000, 16,
                           on_done=finished.append)
        system.run()
        assert system.dma.blocked
        assert security.monitor.count(ViolationType.POLICY_MISS) >= 1

    def test_legitimate_traffic_raises_no_alerts(self, secured):
        system, security = secured
        cfg = system.config
        program = ProcessorProgram([
            MemoryOperation.write(cfg.bram_base + 0x80, bytes(16)),
            MemoryOperation.read(cfg.bram_base + 0x80, burst_length=4),
            MemoryOperation.write(cfg.ip_regs_base + 0x20, (5).to_bytes(4, "little")),
            MemoryOperation.write(cfg.ddr_base + 0x100, bytes(range(32))),
            MemoryOperation.read(cfg.ddr_base + 0x100, burst_length=8),
        ])
        system.processors["cpu0"].load_program(program)
        system.processors["cpu0"].start()
        system.run()
        cpu = system.processors["cpu0"]
        assert all(t.status is TransactionStatus.COMPLETED for t in cpu.transactions)
        assert security.monitor.count() == 0

    def test_summary_structure(self, secured):
        _, security = secured
        summary = security.summary()
        assert "firewalls" in summary and "alerts" in summary and "reactions" in summary
        assert "lcf_ddr" in summary["firewalls"]

    def test_protection_windows_cover_configured_sizes(self, secured):
        system, security = secured
        lcf = security.ciphering_firewall
        secure_region = lcf.region_for(system.config.ddr_base)
        assert secure_region is not None
        assert secure_region.rule.size == SMALL_WINDOW

    def test_window_policies_cipher_and_authenticate(self, secured):
        _, security = secured
        secure, cipher_only, plain = (
            rule.policy for rule in security.ciphering_firewall.config_memory.rules
        )
        assert secure.needs_ciphering and secure.needs_integrity
        assert cipher_only.needs_ciphering and not cipher_only.needs_integrity
        assert not plain.needs_ciphering and not plain.needs_integrity
