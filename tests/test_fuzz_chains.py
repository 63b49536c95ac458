"""Attack chains: per-step attribution and containment."""

from __future__ import annotations

import pytest

from repro.attacks.campaign import CampaignReport
from repro.attacks.chains import (
    BootRollbackChain,
    DescriptorHijackChain,
    FirmwareSabotageChain,
)
from repro.attacks.runner import CampaignRunner
from repro.scenarios import get_scenario, instantiate_attacks, platform_factory_for
from repro.scenarios.builder import ScenarioBuilder
from repro.soc.transaction import TransactionStatus


def _built(name: str, protected: bool = True):
    return ScenarioBuilder(get_scenario(name)).build(protected)


# -- per-step semantics -----------------------------------------------------------


def test_firmware_chain_succeeds_for_authorized_master():
    built = _built("firmware_update_bay")
    result = FirmwareSabotageChain(hijacked_master="cpu0").run(
        built.system, built.security
    )
    assert result.achieved_goal
    steps = result.extra["chain_steps"]
    assert [s["label"] for s in steps] == ["unlock", "arm", "stage_payload", "commit"]
    assert all(s["status"] == TransactionStatus.COMPLETED.value for s in steps)
    assert result.extra["chain"]["first_blocked_step"] is None


def test_firmware_chain_is_contained_at_first_step_for_restricted_master():
    built = _built("firmware_update_bay")
    result = FirmwareSabotageChain(hijacked_master="cpu1").run(
        built.system, built.security
    )
    assert not result.achieved_goal
    assert result.detected
    assert result.contained_at_interface
    chain = result.extra["chain"]
    assert chain["first_blocked_step"] == 0
    assert chain["steps_run"] == 1  # the chain stops at the broken link
    step = result.extra["chain_steps"][0]
    assert step["status"] == TransactionStatus.BLOCKED_AT_MASTER.value
    assert step["alerts"] >= 1
    assert step["block_reason"]
    # The device never saw the protocol: nothing committed, no violation.
    assert built.system.ips["fw0"].commits == 0


def test_firmware_chain_runs_free_on_the_unprotected_platform():
    built = _built("firmware_update_bay", protected=False)
    result = FirmwareSabotageChain(hijacked_master="cpu1").run(built.system, None)
    assert result.achieved_goal
    assert not result.detected
    assert built.system.ips["fw0"].commits == 1


def test_descriptor_hijack_needs_the_exfiltration_step_to_count():
    # cpu0 may program the ring, but the secret bram is not in its policy:
    # the descriptor latches, the programmed read is blocked, goal not achieved.
    built = _built("firmware_update_bay")
    result = DescriptorHijackChain(
        hijacked_master="cpu0", target_address=0x0001_0000
    ).run(built.system, built.security)
    assert not result.achieved_goal
    steps = {s["label"]: s for s in result.extra["chain_steps"]}
    assert steps["ring_doorbell"]["status"] == TransactionStatus.COMPLETED.value
    assert steps["exfiltrate"]["status"] != TransactionStatus.COMPLETED.value
    ring = built.system.ips["ring0"]
    assert any(dst == 0x0001_0000 for (_s, dst, _l, _f) in ring.latched)


def test_boot_rollback_chain_is_blocked_on_the_registered_pack():
    built = _built("secure_boot_bay")
    result = BootRollbackChain(hijacked_master="cpu1").run(
        built.system, built.security
    )
    assert not result.achieved_goal
    assert result.extra["chain"]["first_blocked_step"] == 0
    assert built.system.ips["boot0"].leaks == []


# -- campaign attribution ---------------------------------------------------------


@pytest.fixture(scope="module")
def serial_report() -> CampaignReport:
    return CampaignRunner.from_spec(get_scenario("firmware_update_bay")).run()


def test_campaign_report_carries_chain_totals(serial_report):
    totals = serial_report.chain_totals()
    # Two chain attacks ride in the pack (the dos flood is not a chain).
    assert totals["attacks"] == 2
    assert totals["steps_planned"] > totals["steps_run"] >= totals["attacks"]
    assert totals["broken_chains"] == 2
    assert totals["blocked_steps"] == 2
    assert totals["alerted_steps"] >= 2
    assert sum(totals["containment"].values()) == totals["blocked_steps"]
    assert serial_report.summary()["chains"] == totals


def test_chain_totals_absent_for_chainless_scenarios():
    report = CampaignRunner.from_spec(get_scenario("minimal_1x1")).run()
    assert report.chain_totals()["attacks"] == 0
    assert "chains" not in report.summary()


def test_chain_attribution_adds_up_over_the_attacks(serial_report):
    """Per-step chain accounting never double-counts: the battery's chain
    totals are the sums of each attack's totals when it runs alone."""
    spec = get_scenario("firmware_update_bay")
    alone = [
        CampaignRunner([attack], platform_factory_for(spec)).run().chain_totals()
        for attack in instantiate_attacks(spec)
    ]
    totals = serial_report.chain_totals()
    for field in ("attacks", "steps_planned", "steps_run", "blocked_steps",
                  "alerted_steps", "broken_chains"):
        assert totals[field] == sum(part[field] for part in alone), field
    containment = {}
    for part in alone:
        for status, count in part["containment"].items():
            containment[status] = containment.get(status, 0) + count
    assert totals["containment"] == containment
