"""Mid-stream reconfiguration must invalidate every memoised verdict.

The Configuration Memory's ``generation`` counter is the single invalidation
signal for the Security Builder decision cache and the LCF's region memo.
These regressions drive live traffic through a secured platform, rewrite the
Configuration Memory mid-stream, and assert the *very next* transaction is
judged by the new rule — on cached and uncached builds alike.
"""

from __future__ import annotations

from repro.core.policy import ReadWriteAccess
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus

from tests.conftest import build_figure1


def _issue_write(system, master: str, address: int) -> BusTransaction:
    txn = BusTransaction(
        master=master, operation=BusOperation.WRITE, address=address,
        width=4, data=b"\x11\x22\x33\x44",
    )
    port = system.master_ports[master]
    port.issue(txn, lambda _t: None)
    system.run()
    return txn


class TestGenerationCounterInvalidation:
    def test_master_firewall_sees_new_rule_on_next_transaction(self):
        system, security = build_figure1()
        firewall = security.master_firewalls["cpu0"]
        memory = firewall.config_memory
        bram_base = system.config.bram_base

        # Warm the decision cache with an allowed write.
        assert _issue_write(system, "cpu0", bram_base).status is TransactionStatus.COMPLETED
        assert _issue_write(system, "cpu0", bram_base).status is TransactionStatus.COMPLETED
        assert firewall.security_builder.cache_hits >= 1

        # Mid-stream reconfiguration: the BRAM window becomes read-only.
        generation_before = memory.generation
        rule = next(r for r in memory.rules if r.base == bram_base)
        assert security.manager.reconfigure_policy(
            "lf_cpu0", bram_base, rule.policy.with_updates(rwa=ReadWriteAccess.READ_ONLY)
        )
        assert memory.generation == generation_before + 1

        # The very next transaction must be judged by the new rule.
        blocked = _issue_write(system, "cpu0", bram_base)
        assert blocked.status is TransactionStatus.BLOCKED_AT_MASTER
        alerts = security.monitor.alerts
        assert alerts and alerts[-1].violation.value == "unauthorized_write"

    def test_rule_removal_reverts_to_default_deny_immediately(self):
        system, security = build_figure1()
        firewall = security.master_firewalls["cpu1"]
        memory = firewall.config_memory
        ddr_base = system.config.ddr_base

        assert _issue_write(system, "cpu1", ddr_base + 0x4000).status is TransactionStatus.COMPLETED
        generation_before = memory.generation
        assert memory.remove(ddr_base)
        assert memory.generation == generation_before + 1

        blocked = _issue_write(system, "cpu1", ddr_base + 0x4000)
        assert blocked.status is TransactionStatus.BLOCKED_AT_MASTER
        assert security.monitor.alerts[-1].violation.value == "policy_miss"

    def test_lcf_region_memo_tracks_generation(self):
        system, security = build_figure1()
        lcf = security.ciphering_firewall
        ddr_base = system.config.ddr_base

        # Warm the region memo through a protected write (request + response
        # paths both consult region_for).
        assert _issue_write(system, "cpu0", ddr_base).status is TransactionStatus.COMPLETED
        assert lcf.region_for(ddr_base, 4) is not None
        generation = lcf.config_memory.generation
        assert lcf._region_cache_generation == generation

        # Any rule change must drop the memo on the next lookup.
        plain_rule = next(r for r in lcf.config_memory.rules if r.label == "ddr_plain")
        assert lcf.config_memory.remove(plain_rule.base)
        assert lcf.region_for(ddr_base, 4) is not None  # still protected
        assert lcf._region_cache_generation == lcf.config_memory.generation
        assert lcf._region_cache_generation != generation

    def test_cached_and_uncached_builds_agree_across_reconfiguration(self):
        """End-to-end: the same traffic + mid-stream reconfiguration produces
        identical statuses and alert streams with decision caches on and off."""
        outcomes = []
        for decisions_cached in (True, False):
            system, security = build_figure1()
            for firewall in security.all_firewalls:
                firewall.security_builder.cache_enabled = (
                    decisions_cached and firewall.security_builder.cache_enabled
                )
            bram_base = system.config.bram_base
            statuses = [
                _issue_write(system, "cpu0", bram_base).status.value,
                _issue_write(system, "cpu0", bram_base + 8).status.value,
            ]
            rule = next(r for r in security.master_firewalls["cpu0"].config_memory.rules
                        if r.base == bram_base)
            security.manager.reconfigure_policy(
                "lf_cpu0", bram_base, rule.policy.with_updates(rwa=ReadWriteAccess.READ_ONLY)
            )
            statuses.append(_issue_write(system, "cpu0", bram_base).status.value)
            alerts = [
                (a.cycle, a.firewall, a.violation.value, a.address)
                for a in security.monitor.alerts
            ]
            outcomes.append((statuses, alerts))
        assert outcomes[0] == outcomes[1]
