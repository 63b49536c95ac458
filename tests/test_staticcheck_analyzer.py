"""Static analyzer: finding catalog, severity calibration, witness shapes."""

import dataclasses

import pytest

from repro.core.policy import ConfigurationMemoryFull
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.registry import get_scenario, list_scenarios
from repro.scenarios.spec import (
    BridgeSpec,
    MasterSpec,
    ScenarioSpec,
    SegmentSpec,
    SlaveSpec,
    TopologySpec,
    WindowSpec,
    WorkloadSpec,
)
from repro.staticcheck import SEVERITIES, confirm_report, verify_scenario, verify_spec
from repro.staticcheck.analyzer import segment_paths
from repro.staticcheck.findings import StaticCheckError


def bypass_spec(**overrides) -> ScenarioSpec:
    """A protected region reachable via a firewall-free bridge route.

    ``rogue`` has no leaf firewall and is restricted to ``bram``, yet under
    leaf placement nothing on the seg_a -> br -> seg_b route can stop it
    from reading ``secret``.
    """
    params = dict(
        name="bypass_probe",
        description="firewall-free master reaches a restricted slave across a bridge",
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", kind="cpu", segment="seg_a"),
                MasterSpec("rogue", kind="dma", firewall=False, segment="seg_a",
                           accessible=("bram",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="seg_a"),
                SlaveSpec("secret", "bram", base=0x1000_0000, size=0x2000,
                          segment="seg_b"),
            ),
            segments=(SegmentSpec("seg_a"), SegmentSpec("seg_b")),
            bridges=(BridgeSpec("br", "seg_a", "seg_b"),),
        ),
        workload=WorkloadSpec(n_operations=16),
        placement="leaf",
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestRegisteredScenarios:
    def test_zero_error_findings_on_every_registered_scenario(self):
        for name in list_scenarios():
            report = verify_scenario(name)
            assert not report.has_errors, (
                name, [f.to_dict() for f in report.errors]
            )

    def test_reports_sorted_most_severe_first(self):
        for name in list_scenarios():
            report = verify_scenario(name)
            ranks = [SEVERITIES.index(f.severity) for f in report.findings]
            assert ranks == sorted(ranks)

    def test_coverage_witnesses_name_their_enforcing_hop(self):
        for name in list_scenarios():
            for witness in verify_scenario(name).coverage:
                assert witness.expectation == "blocked_or_alerted"
                assert witness.enforced_by

    def test_centralized_scenario_reports_scope_note_only(self):
        report = verify_scenario("centralized_baseline_mirror")
        assert [f.code for f in report.findings] == ["centralized-enforcement"]
        assert report.verdict() == "1I"

    def test_bridge_placement_gap_is_warning_not_error(self):
        report = verify_scenario("bridge_firewalled_centralized")
        gaps = [f for f in report.findings if f.code == "placement-gap"]
        assert len(gaps) == 1
        assert gaps[0].severity == "warning"
        assert gaps[0].subject == "cpu2->ip0"
        assert gaps[0].witness is not None
        assert gaps[0].witness.expectation == "reaches_silently"

    def test_posted_bridge_scenarios_carry_ack_hazard_infos(self):
        report = verify_scenario("two_segment_dma_isolation")
        codes = [f.code for f in report.findings]
        assert "posted-ack-before-check" in codes
        assert "posted-buffer-hazard" in codes
        assert all(f.severity == "info" for f in report.findings)


class TestBypassScenario:
    def test_unguarded_path_error_with_reaching_witness(self):
        report = verify_spec(bypass_spec())
        assert report.has_errors
        errors = report.errors
        assert [f.code for f in errors] == ["unguarded-path"]
        witness = errors[0].witness
        assert witness is not None
        assert witness.master == "rogue"
        assert witness.target == "secret"
        assert witness.expectation == "reaches_silently"
        assert witness.route_bridges == ("br",)
        assert witness.route_segments == ("seg_a", "seg_b")

    def test_leaf_firewall_on_master_closes_the_path(self):
        spec = bypass_spec(topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", kind="cpu", segment="seg_a"),
                MasterSpec("rogue", kind="dma", firewall=True, segment="seg_a",
                           accessible=("bram",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="seg_a"),
                SlaveSpec("secret", "bram", base=0x1000_0000, size=0x2000,
                          segment="seg_b"),
            ),
            segments=(SegmentSpec("seg_a"), SegmentSpec("seg_b")),
            bridges=(BridgeSpec("br", "seg_a", "seg_b"),),
        ))
        report = verify_spec(spec)
        assert not report.has_errors
        assert any(
            w.master == "rogue" and w.target == "secret" and w.enforced_by == "lf_rogue"
            for w in report.coverage
        )

    def test_bridge_deny_closes_the_path_under_both_placement(self):
        spec = bypass_spec(placement="both", topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", kind="cpu", segment="seg_a"),
                MasterSpec("rogue", kind="dma", firewall=False, segment="seg_a",
                           accessible=("bram",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="seg_a"),
                SlaveSpec("secret", "bram", base=0x1000_0000, size=0x2000,
                          segment="seg_b"),
            ),
            segments=(SegmentSpec("seg_a"), SegmentSpec("seg_b")),
            bridges=(BridgeSpec("br", "seg_a", "seg_b", deny=("secret",)),),
        ))
        report = verify_spec(spec)
        assert not report.has_errors
        assert any(
            w.master == "rogue" and w.enforced_by == "lf_br" for w in report.coverage
        )

    def test_readonly_behind_a_denying_bridge_is_enforced_by_the_bridge(self):
        spec = bypass_spec(placement="both", topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", kind="cpu", segment="seg_a"),
                MasterSpec("rogue", kind="dma", firewall=False, segment="seg_a",
                           readonly=("secret",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="seg_a"),
                SlaveSpec("secret", "bram", base=0x1000_0000, size=0x2000,
                          segment="seg_b"),
            ),
            segments=(SegmentSpec("seg_a"), SegmentSpec("seg_b")),
            bridges=(BridgeSpec("br", "seg_a", "seg_b", deny=("secret",)),),
        ))
        report = verify_spec(spec)
        assert not report.has_errors, [f.to_dict() for f in report.errors]
        assert [
            (w.target, w.op, w.enforced_by) for w in report.coverage if w.master == "rogue"
        ] == [("secret", "write", "lf_br")]
        ScenarioBuilder(spec, verify=True)
        assert all(r.confirmed for r in confirm_report(spec))

    def test_register_file_behind_a_denying_bridge_has_its_format_checked(self):
        spec = bypass_spec(placement="bridge", topology=TopologySpec(
            masters=(MasterSpec("cpu0", kind="cpu", segment="seg_a"),),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="seg_a"),
                SlaveSpec("regs", "ip", base=0x4000_0000, segment="seg_b"),
            ),
            segments=(SegmentSpec("seg_a"), SegmentSpec("seg_b")),
            bridges=(BridgeSpec("br", "seg_a", "seg_b", deny=("regs",)),),
        ))
        report = verify_spec(spec)
        assert "unchecked-format" not in [f.code for f in report.findings]
        assert [
            (w.target, w.op, w.width, w.enforced_by) for w in report.coverage
        ] == [("regs", "write", 1, "lf_br")]
        assert all(r.confirmed for r in confirm_report(spec))

    def test_readonly_without_leaf_firewall_is_unguarded(self):
        spec = bypass_spec(topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", kind="cpu", segment="seg_a"),
                MasterSpec("rogue", kind="dma", firewall=False, segment="seg_a",
                           readonly=("secret",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="seg_a"),
                SlaveSpec("secret", "bram", base=0x1000_0000, size=0x2000,
                          segment="seg_b"),
            ),
            segments=(SegmentSpec("seg_a"), SegmentSpec("seg_b")),
            bridges=(BridgeSpec("br", "seg_a", "seg_b"),),
        ))
        report = verify_spec(spec)
        errors = report.errors
        assert [f.code for f in errors] == ["unguarded-path"]
        assert errors[0].witness is not None
        assert errors[0].witness.op == "write"


class TestMapAndRuleChecks:
    def test_overlapping_regions_is_an_error_and_stops_analysis(self):
        spec = bypass_spec(topology=TopologySpec(
            masters=(MasterSpec("cpu0", kind="cpu"),),
            slaves=(
                SlaveSpec("a", "bram", base=0x0, size=0x2000),
                SlaveSpec("b", "bram", base=0x1000, size=0x2000),
            ),
        ), placement="leaf")
        report = verify_spec(spec)
        assert [f.code for f in report.findings] == ["overlapping-regions"]
        assert report.findings[0].severity == "error"

    def test_unenforced_window_is_an_error(self):
        spec = bypass_spec(topology=TopologySpec(
            masters=(MasterSpec("cpu0", kind="cpu"),),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000),
                SlaveSpec("ddr", "ddr", base=0x9000_0000, size=0x4000,
                          firewall=False,
                          windows=(WindowSpec("plain", 0x2000),
                                   WindowSpec("secure", 0x2000))),
            ),
        ))
        report = verify_spec(spec)
        assert any(
            f.code == "unenforced-window" and f.severity == "error"
            for f in report.findings
        )

    def test_capacity_overflow_is_an_error_that_refuses_the_build(self):
        spec = dataclasses.replace(get_scenario("paper_baseline"), config_memory_capacity=2)
        # Unverified, the build fails inside attach_security.
        with pytest.raises(ConfigurationMemoryFull, match="capacity 2 reached"):
            ScenarioBuilder(spec).build()
        overflows = {
            f.subject: f for f in verify_spec(spec).findings if f.code == "capacity-overflow"
        }
        assert sorted(overflows) == ["lcf_ddr", "lf_cpu0", "lf_cpu1"]
        assert all(f.severity == "error" for f in overflows.values())
        assert "lf_cpu0 is planned with 3 rules" in overflows["lf_cpu0"].message
        assert "config_memory_capacity is 2" in overflows["lf_cpu0"].message
        with pytest.raises(StaticCheckError, match="capacity-overflow"):
            ScenarioBuilder(spec, verify=True)
        # At a capacity the largest rule set fits, nothing is reported.
        fits = dataclasses.replace(spec, config_memory_capacity=3)
        assert not any(f.code == "capacity-overflow" for f in verify_spec(fits).findings)
        ScenarioBuilder(fits, verify=True).build()

    def test_dead_bridge_rules_flagged_on_deep_hierarchy(self):
        report = verify_scenario("deep_hierarchy_3seg")
        dead = [f for f in report.findings if f.code == "dead-rule"]
        assert {f.subject for f in dead} == {"lf_br12:bram", "lf_br12:bram1"}
        assert all(f.severity == "warning" for f in dead)

    def test_bridge_cycle_detected(self):
        spec = bypass_spec(topology=TopologySpec(
            masters=(MasterSpec("cpu0", kind="cpu", segment="s0"),),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="s0"),
                SlaveSpec("far", "bram", base=0x1000_0000, size=0x2000,
                          segment="s2"),
            ),
            segments=(SegmentSpec("s0"), SegmentSpec("s1"), SegmentSpec("s2")),
            bridges=(
                BridgeSpec("b01", "s0", "s1"),
                BridgeSpec("b12", "s1", "s2"),
                BridgeSpec("b20", "s2", "s0"),
            ),
        ))
        report = verify_spec(spec)
        cycles = [f for f in report.findings if f.code == "bridge-cycle"]
        assert [f.subject for f in cycles] == ["b20"]


class TestSegmentPaths:
    def test_paths_mirror_fabric_router_bfs(self):
        spec = get_scenario("deep_hierarchy_3seg")
        paths = segment_paths(spec.topology)
        assert paths[("seg0", "seg2")] == ("br01", "br12")
        assert paths[("seg2", "seg0")] == ("br12", "br01")
        assert paths[("seg1", "seg1")] == ()

    def test_unreachable_segments_have_no_path_entry(self):
        topology = TopologySpec(
            masters=(MasterSpec("cpu0", kind="cpu", segment="s0"),),
            slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x2000, segment="s0"),),
            segments=(SegmentSpec("s0"), SegmentSpec("s1")),
        )
        paths = segment_paths(topology)
        assert ("s0", "s1") not in paths


def test_invalid_spec_becomes_finding_not_exception():
    spec = bypass_spec()
    broken = dataclasses.replace(spec, placement="bridge", topology=TopologySpec(
        masters=(MasterSpec("cpu0", kind="cpu"),),
        slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x2000),),
    ))
    report = verify_spec(broken)
    assert [f.code for f in report.findings] == ["invalid-spec"]
    assert report.has_errors


def test_witness_validation_rejects_bad_ops():
    from repro.staticcheck import Witness

    with pytest.raises(ValueError):
        Witness(master="m", address=0, op="jump", width=4, target="s",
                region="s", expectation="reaches_silently")
    with pytest.raises(ValueError):
        Witness(master="m", address=0, op="read", width=4, target="s",
                region="s", expectation="maybe")
