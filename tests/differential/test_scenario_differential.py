"""Golden-model differential harness over the whole scenario registry.

Every registered scenario runs twice — memos on (the default) and every
platform built with its decision, region and keystream memos off
(:func:`repro.scenarios.reference_mode`) — and the two
structural fingerprints must match exactly: same alert streams, same cycle
counts, same raw memory images (i.e. same ciphertexts in the protected
external memory), same firewall verdict counters and same per-attack
outcomes, on both the protected and the unprotected builds.
"""

from __future__ import annotations

import pytest

from repro.core.local_firewall import decision_cache_enabled
from repro.crypto.modes import keystream_cache_enabled
from repro.scenarios import (
    assert_equivalent,
    differential_pair,
    get_scenario,
    list_scenarios,
    reference_mode,
    run_scenario,
)
from repro.soc.transaction import Step, TransactionStatus

from tests.conftest import build_figure1

ALL_SCENARIOS = list_scenarios()


def test_registry_holds_canonical_scenarios():
    assert len(ALL_SCENARIOS) >= 8
    for expected in (
        "minimal_1x1",
        "paper_baseline",
        "many_master_contention",
        "sparse_protection",
        "dense_protection",
        "reconfiguration_under_load",
        "attack_heavy",
        "crypto_heavy",
        "centralized_baseline_mirror",
    ):
        assert expected in ALL_SCENARIOS


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_fast_and_reference_runs_are_identical(name):
    fast, reference = differential_pair(lambda: get_scenario(name))
    assert_equivalent(fast, reference)


def test_reference_mode_restores_the_memo_defaults():
    assert keystream_cache_enabled() and decision_cache_enabled()
    with pytest.raises(RuntimeError):
        with reference_mode():
            assert not keystream_cache_enabled() and not decision_cache_enabled()
            raise RuntimeError("restored on the way out")
    assert keystream_cache_enabled() and decision_cache_enabled()


def test_reference_build_serves_the_secure_window_without_its_region_memo():
    with reference_mode():
        system, security = build_figure1()
    lcf = security.ciphering_firewall
    assert not lcf.security_builder.cache_enabled
    base = next(r.rule.base for r in lcf.protected_regions if r.rule.label == "ddr_secure")
    for offset, data in ((0x0, b"\x01\x02\x03\x04"), (0x24, b"\xa5" * 4)):
        write = system.issue(Step("cpu0", "write", base + offset, data=data))
        assert write.status is TransactionStatus.COMPLETED
        assert system.issue(Step("cpu0", "read", base + offset)).data == data
    assert lcf.integrity_core.blocks_updated == 2
    assert lcf._region_cache == {}


def test_fingerprint_covers_the_interesting_observables():
    fingerprint = run_scenario(get_scenario("minimal_1x1"))
    protected = fingerprint["protected"]
    assert protected["workload_cycles"] > 0
    assert "bram" in protected["memories"]
    assert protected["firewalls"], "protected run must fingerprint its firewalls"
    assert fingerprint["unprotected"]["firewalls"] == {}
    assert len(protected["attacks"]) == 1


def test_reconfiguration_scenario_alerts_only_after_the_swap():
    """The reconfiguration-under-load scenario must produce alerts, all of
    them after the first reconfiguration fires (cycle 600)."""
    fingerprint = run_scenario(get_scenario("reconfiguration_under_load"))
    alerts = fingerprint["protected"]["alerts"]
    assert alerts, "reconfiguration scenario must trip the new read-only rule"
    assert all(cycle >= 600 for cycle, *_ in alerts)
    # The unprotected build has no firewalls, hence no alerts.
    assert fingerprint["unprotected"]["alerts"] == []
