"""Unit tests for the declarative scenario layer (spec validation + builder).

The differential suite exercises whole scenarios end to end; these tests pin
the contract of the declarative layer itself: validation rejects malformed
topologies, the builder derives the right plan from a spec, and the registry
hands out fresh specs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.secure import SecuredPlatform
from repro.scenarios import (
    AttackSpec,
    MasterSpec,
    ScenarioBuilder,
    ScenarioSpec,
    SlaveSpec,
    TopologySpec,
    WindowSpec,
    WorkloadSpec,
    get_scenario,
    instantiate_attacks,
    list_scenarios,
)


def _tiny_topology(**scenario_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        description="test",
        topology=TopologySpec(
            masters=(MasterSpec("cpu0"),),
            slaves=(SlaveSpec("bram", "bram", base=0x0, size=4096),),
        ),
        **scenario_kwargs,
    )


class TestSpecValidation:
    def test_window_rejects_unknown_protection_and_bad_size(self):
        with pytest.raises(ValueError):
            WindowSpec("fortified", 1024)
        with pytest.raises(ValueError):
            WindowSpec("secure", 0)

    def test_slave_rejects_unknown_kind_and_oversized_windows(self):
        with pytest.raises(ValueError):
            SlaveSpec("x", "flash", base=0, size=1024)
        with pytest.raises(ValueError):
            SlaveSpec("ddr", "ddr", base=0, size=1024,
                      windows=(WindowSpec("secure", 2048),))
        with pytest.raises(ValueError):
            SlaveSpec("bram", "bram", base=0, size=1024,
                      windows=(WindowSpec("secure", 512),))

    def test_ip_slave_size_derived_from_registers(self):
        ip = SlaveSpec("ip0", "ip", base=0x4000_0000, n_registers=16)
        assert ip.size == 64
        assert ip.region_name == "ip0_regs"

    def test_topology_rejects_duplicates_overlaps_and_no_cpu(self):
        with pytest.raises(ValueError, match="unique"):
            TopologySpec(
                masters=(MasterSpec("cpu0"), MasterSpec("cpu0")),
                slaves=(SlaveSpec("bram", "bram", base=0, size=1024),),
            ).validate()
        with pytest.raises(ValueError, match="overlap"):
            TopologySpec(
                masters=(MasterSpec("cpu0"),),
                slaves=(
                    SlaveSpec("bram", "bram", base=0, size=4096),
                    SlaveSpec("bram1", "bram", base=2048, size=4096),
                ),
            ).validate()
        with pytest.raises(ValueError, match="cpu"):
            TopologySpec(
                masters=(MasterSpec("dma", kind="dma"),),
                slaves=(SlaveSpec("bram", "bram", base=0, size=1024),),
            ).validate()

    def test_master_referencing_unknown_slave_is_rejected(self):
        with pytest.raises(ValueError, match="unknown slave 'brams'"):
            TopologySpec(
                masters=(MasterSpec("cpu0", accessible=("brams",)),),
                slaves=(SlaveSpec("bram", "bram", base=0, size=1024),),
            ).validate()
        with pytest.raises(ValueError, match="unknown slave 'ip9'"):
            TopologySpec(
                masters=(MasterSpec("cpu0", readonly=("ip9",)),),
                slaves=(SlaveSpec("bram", "bram", base=0, size=1024),),
            ).validate()

    def test_reconfig_targeting_unknown_firewall_is_rejected(self):
        from repro.scenarios import ReconfigSpec

        spec = _tiny_topology(
            reconfigs=(ReconfigSpec(at_cycle=10, firewall="lf_cpu9", rule_base=0x0),),
        )
        with pytest.raises(ValueError, match="unknown firewall 'lf_cpu9'"):
            spec.validate()

    def test_scenario_rejects_unknown_enforcement(self):
        spec = _tiny_topology()
        spec.enforcement = "blockchain"
        with pytest.raises(ValueError):
            spec.validate()

    def test_centralized_needs_the_reference_trio(self):
        spec = _tiny_topology(enforcement="centralized")
        with pytest.raises(ValueError, match="centralized"):
            spec.validate()

    def test_centralized_spec_rejects_reconfigurations(self):
        from repro.scenarios import ReconfigSpec
        from repro.staticcheck import verify_spec

        spec = dataclasses.replace(
            get_scenario("centralized_baseline_mirror"),
            reconfigs=(ReconfigSpec(50, "lf_cpu0", 0x0),),
        )
        with pytest.raises(ValueError, match="centralized_baseline_mirror"):
            spec.validate()
        assert [f.code for f in verify_spec(spec).findings] == ["invalid-spec"]

    def test_master_accessibility(self):
        narrow = MasterSpec("cpu0", accessible=("bram",))
        assert narrow.can_access("bram") and not narrow.can_access("ddr")
        wide = MasterSpec("cpu1")
        assert wide.can_access("anything")


class TestBuilder:
    def test_unknown_attack_kind_is_rejected(self):
        spec = _tiny_topology(attacks=(AttackSpec("rowhammer"),))
        with pytest.raises(ValueError, match="rowhammer"):
            instantiate_attacks(spec)

    def test_readonly_master_gets_readonly_rule(self):
        spec = ScenarioSpec(
            name="ro",
            description="readonly master",
            topology=TopologySpec(
                masters=(MasterSpec("cpu0", readonly=("bram",)),),
                slaves=(SlaveSpec("bram", "bram", base=0x0, size=4096),),
            ),
        )
        built = ScenarioBuilder(spec).build(protected=True)
        assert isinstance(built.security, SecuredPlatform)
        memory = built.security.master_firewalls["cpu0"].config_memory
        (rule,) = memory.rules
        assert not rule.policy.rwa.allows_write()

    def test_readonly_applies_to_ip_slaves_too(self):
        spec = ScenarioSpec(
            name="ro_ip",
            description="read-only IP master",
            topology=TopologySpec(
                masters=(MasterSpec("cpu0", readonly=("ip0",)),),
                slaves=(
                    SlaveSpec("bram", "bram", base=0x0, size=4096),
                    SlaveSpec("ip0", "ip", base=0x4000_0000, n_registers=8),
                ),
            ),
        )
        built = ScenarioBuilder(spec).build(protected=True)
        memory = built.security.master_firewalls["cpu0"].config_memory
        ip_rule = next(r for r in memory.rules if r.label == "ip0_regs")
        assert not ip_rule.policy.rwa.allows_write()
        assert ip_rule.policy.allowed_formats == frozenset({4})

    def test_reconfiguration_with_bad_rule_base_fails_loudly(self):
        from repro.scenarios import ReconfigSpec

        spec = _tiny_topology(
            workload=WorkloadSpec(n_operations=20, external_share=0.0,
                                  ip_share_of_internal=0.0, seed=3),
            reconfigs=(ReconfigSpec(at_cycle=10, firewall="lf_cpu0",
                                    rule_base=0xDEAD), ),
        )
        built = ScenarioBuilder(spec).build(protected=True)
        with pytest.raises(ValueError, match="no rule at 0xdead"):
            built.run_workload()

    def test_inaccessible_slave_has_no_rule(self):
        spec = ScenarioSpec(
            name="fenced",
            description="cpu1 cannot reach the ip",
            topology=TopologySpec(
                masters=(
                    MasterSpec("cpu0"),
                    MasterSpec("cpu1", accessible=("bram",)),
                ),
                slaves=(
                    SlaveSpec("bram", "bram", base=0x0, size=4096),
                    SlaveSpec("ip0", "ip", base=0x4000_0000, n_registers=8),
                ),
            ),
        )
        built = ScenarioBuilder(spec).build(protected=True)
        assert len(built.security.master_firewalls["cpu0"].config_memory) == 2
        assert len(built.security.master_firewalls["cpu1"].config_memory) == 1

    def test_ddr_windows_become_lcf_rules_and_keys(self):
        spec = ScenarioSpec(
            name="windows",
            description="secure + cipher_only + implicit plain",
            topology=TopologySpec(
                masters=(MasterSpec("cpu0"),),
                slaves=(
                    SlaveSpec("ddr", "ddr", base=0x9000_0000, size=8192,
                              windows=(WindowSpec("secure", 1024),
                                       WindowSpec("cipher_only", 1024))),
                ),
            ),
        )
        built = ScenarioBuilder(spec).build(protected=True)
        lcf = built.security.ciphering_firewalls["ddr"]
        labels = [rule.label for rule in lcf.config_memory.rules]
        assert labels == ["ddr_secure", "ddr_cipher_only", "ddr_plain"]
        assert len(lcf.protected_regions) == 2
        # One key per ciphered window, installed and locked.
        assert built.security.key_store.locked

    def test_unprotected_build_has_no_filters(self):
        built = ScenarioBuilder(_tiny_topology()).build(protected=False)
        assert built.security is None
        assert all(not p.filters for p in built.system.master_ports.values())
        assert all(not p.filters for p in built.system.slave_ports.values())

    def test_protected_builds_derive_the_plan_once(self, monkeypatch):
        import repro.scenarios.builder as builder_module

        calls = []
        build_plan = builder_module.build_plan
        monkeypatch.setattr(
            builder_module, "build_plan", lambda spec: calls.append(spec.name) or build_plan(spec)
        )
        builder = ScenarioBuilder(get_scenario("paper_baseline"))
        builder.build(protected=False)
        assert calls == []
        for _ in range(3):
            builder.build()
        assert calls == ["paper_baseline"]

    def test_builds_from_one_builder_share_no_mutable_state(self):
        from repro.core.policy import ReadWriteAccess
        from repro.soc.transaction import Step, TransactionStatus

        builder = ScenarioBuilder(get_scenario("paper_baseline"))
        first, second = builder.build(), builder.build()

        def snapshot(built):
            lcf = built.security.ciphering_firewall
            roots = [region.tree.root for region in lcf.protected_regions if region.tree]
            memories = {
                firewall.name: [(r.base, r.size, r.policy) for r in firewall.config_memory.rules]
                for firewall in built.security.all_firewalls
            }
            return roots, memories

        before = snapshot(second)
        assert snapshot(first) == before
        # A protected write updates the first platform's hash tree, and a
        # policy rewrite changes one of its Configuration Memories.
        region = next(r for r in first.security.ciphering_firewall.protected_regions if r.tree)
        txn, _ = first.issue(Step("cpu0", "write", region.rule.base, data=b"\x5a" * 4))
        assert txn.status is TransactionStatus.COMPLETED
        rule = first.security.master_firewalls["cpu0"].config_memory.rules[0]
        first.security.manager.reconfigure_policy(
            "lf_cpu0", rule.base, rule.policy.with_updates(rwa=ReadWriteAccess.READ_ONLY)
        )
        first_roots, first_memories = snapshot(first)
        assert first_roots != before[0] and first_memories != before[1]
        assert snapshot(second) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            second.security.manager.reaction.quarantine_after = 1

    def test_workload_only_scenario_runs_to_completion(self):
        spec = _tiny_topology(
            workload=WorkloadSpec(n_operations=30, external_share=0.0,
                                  ip_share_of_internal=0.0, seed=5),
        )
        built = ScenarioBuilder(spec).build(protected=True)
        cycles = built.run_workload()
        assert cycles > 0
        assert built.system.all_done()


class TestRegistry:
    def test_get_scenario_returns_fresh_specs(self):
        first = get_scenario("paper_baseline")
        second = get_scenario("paper_baseline")
        assert first is not second

    def test_unknown_scenario_raises_with_candidates(self):
        with pytest.raises(KeyError, match="paper_baseline"):
            get_scenario("nope")

    def test_every_registered_spec_validates(self):
        for name in list_scenarios():
            get_scenario(name).validate()


def test_plan_and_spec_import_no_simulator_module():
    """The plan is simulator-free data: from ``repro``, ``plan.py`` imports
    only the policy data and the spec, and ``spec.py`` nothing but the plan
    (inside ``validate``)."""
    import ast
    import pathlib

    import repro.scenarios.plan as plan
    import repro.scenarios.spec as spec

    def repro_imports(module):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        return {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro"
        } | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] == "repro"
        }

    assert repro_imports(plan) == {"repro.core.policy", "repro.scenarios.spec"}
    assert repro_imports(spec) == {"repro.scenarios.plan"}
