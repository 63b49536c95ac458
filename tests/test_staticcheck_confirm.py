"""Differential honesty: every static claim must reproduce under the simulator."""

import pytest

from repro.scenarios import list_scenarios
from repro.staticcheck import confirm_report, confirm_witness, verify_scenario, verify_spec
from tests.test_staticcheck_analyzer import bypass_spec

#: Registered scenarios whose verification report carries no witness at all.
WITNESSLESS = {"minimal_1x1", "many_master_contention", "centralized_baseline_mirror"}


class TestBypassConfirmation:
    """The acceptance criterion: the unguarded-path probe reaches protected
    memory with no alert, after the workload has run."""

    def test_probe_reaches_protected_memory_silently(self):
        spec = bypass_spec()
        report = verify_spec(spec)
        witness = report.errors[0].witness
        assert witness is not None
        outcome = confirm_witness(spec, witness, run_workload=True)
        assert outcome.reached, outcome.status
        assert outcome.alerts == 0
        assert outcome.status == "completed"
        assert outcome.confirmed

    def test_probe_blocked_once_master_firewall_exists(self):
        from repro.scenarios.spec import (
            BridgeSpec, MasterSpec, SegmentSpec, SlaveSpec, TopologySpec,
        )

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
        guard = next(
            w for w in report.coverage
            if w.master == "rogue" and w.target == "secret"
        )
        outcome = confirm_witness(spec, guard)
        assert not outcome.reached
        assert outcome.confirmed


def blocking_status(witness):
    """The status a coverage witness must end in: the hop it names blocks it."""
    if witness.enforced_by == f"lf_{witness.master}":
        return "blocked_at_master"
    if witness.enforced_by in {f"lf_{bridge}" for bridge in witness.route_bridges}:
        return "blocked_at_bridge"
    assert witness.enforced_by in (f"lf_{witness.target}", f"lcf_{witness.target}")
    return "blocked_at_slave"


class TestRegisteredScenarioConfirmation:
    @pytest.mark.parametrize("scenario", list_scenarios())
    def test_all_witnesses_confirm(self, scenario):
        results = confirm_report(scenario)
        if scenario not in WITNESSLESS:
            assert results, "scenario should carry at least one witness"
        failed = [r for r in results if not r.confirmed]
        assert not failed, [r.to_dict() for r in failed]
        misplaced = [
            r.to_dict() for r in results
            if r.witness.expectation == "blocked_or_alerted"
            and r.status != blocking_status(r.witness)
        ]
        assert not misplaced, misplaced

    def test_confirm_report_accepts_precomputed_report(self):
        report = verify_scenario("sparse_protection")
        results = confirm_report(report, max_coverage=1)
        assert len(results) == 1
        assert results[0].confirmed

    def test_confirm_report_builds_every_witness_from_one_builder(self, built_specs):
        results = confirm_report("deep_hierarchy_3seg")
        assert len(results) > 1 and all(r.confirmed for r in results)
        assert built_specs == ["deep_hierarchy_3seg"]
