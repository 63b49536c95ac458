"""Centralised security enforcement baseline (SECA-style).

One global Security Enforcement Module (SEM) owns every policy and performs
every check.  Enforcement interfaces on the slave side forward transactions to
it, which means:

* a malicious transaction must first win bus arbitration and occupy the bus
  before the SEM can reject it — there is no containment at the infected IP's
  interface, unlike the paper's Local Firewalls;
* the SEM is a single shared resource, so simultaneous checks from different
  masters serialise and the effective check latency grows with load;
* on the plus side, the hardware cost is one checker instead of one per
  interface (the area model exposes that trade-off too).

The module reuses the same checking modules and policy representation as the
distributed design so the comparison isolates *where* enforcement happens, not
*what* is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.alerts import SecurityAlert, SecurityMonitor, ViolationType
from repro.core.checks import CheckResult, default_check_suite
from repro.core.constants import SECURITY_BUILDER_CYCLES
from repro.core.policy import ConfigurationMemory, PolicyLookupError, default_policies
from repro.metrics.resources import ResourceVector
from repro.soc.kernel import Component, Simulator
from repro.soc.ports import FilterResult, TransactionFilter
from repro.soc.system import SoCSystem
from repro.soc.transaction import BusTransaction

__all__ = [
    "CentralizedSecurityModule",
    "CentralizedEnforcementInterface",
    "CentralizedPlatform",
    "secure_platform_centralized",
]


class CentralizedSecurityModule(Component):
    """The global Security Enforcement Module.

    A single-ported checker: every evaluation occupies it for the Security
    Builder's 12 cycles (:data:`~repro.core.constants.SECURITY_BUILDER_CYCLES`),
    and evaluations that arrive while it is busy queue up (FIFO), which is how
    centralisation turns into latency under concurrent traffic.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config_memory: ConfigurationMemory,
        monitor: Optional[SecurityMonitor] = None,
    ) -> None:
        super().__init__(sim, name)
        self.config_memory = config_memory
        self.monitor = monitor
        self.checks = default_check_suite()
        self._busy_until = 0
        self.evaluations = 0
        self.violations = 0
        self.total_queue_cycles = 0

    def evaluate(self, txn: BusTransaction) -> Tuple[bool, int, str]:
        """Check a transaction; returns (allowed, total latency, reason).

        The latency includes the time the request spent waiting for the SEM
        to become free.
        """
        now = self.sim.now
        start = max(now, self._busy_until)
        queue_delay = start - now
        self._busy_until = start + SECURITY_BUILDER_CYCLES
        total_latency = queue_delay + SECURITY_BUILDER_CYCLES

        self.evaluations += 1
        self.total_queue_cycles += queue_delay
        self.bump("evaluations")
        if queue_delay:
            self.bump("queued_evaluations")
            self.bump("queue_cycles", queue_delay)

        try:
            policy = self.config_memory.lookup(txn.address, txn.size)
        except PolicyLookupError as exc:
            self._alert(txn, ViolationType.POLICY_MISS, str(exc))
            return False, total_latency, "policy miss"

        for check in self.checks:
            result: CheckResult = check.check(policy, txn)
            if not result.passed:
                assert result.violation is not None
                self._alert(txn, result.violation, result.detail)
                return False, total_latency, result.detail
        return True, total_latency, ""

    def _alert(self, txn: BusTransaction, violation: ViolationType, detail: str) -> None:
        self.violations += 1
        self.bump("violations")
        if self.monitor is not None:
            self.monitor.raise_alert(
                SecurityAlert.for_violation(
                    cycle=self.sim.now,
                    firewall=self.name,
                    master=txn.master,
                    violation=violation,
                    address=txn.address,
                    txn_id=txn.txn_id,
                    detail=detail,
                )
            )

    def average_queue_delay(self) -> float:
        """Average cycles an evaluation waited for the SEM (contention metric)."""
        return self.total_queue_cycles / self.evaluations if self.evaluations else 0.0


class CentralizedEnforcementInterface(TransactionFilter):
    """Slave-side shim forwarding every transaction to the central SEM."""

    name = "centralized_enforcement"

    def __init__(self, sem: CentralizedSecurityModule, label: str) -> None:
        self.sem = sem
        self.label = label

    def filter_request(self, txn: BusTransaction) -> FilterResult:
        allowed, latency, reason = self.sem.evaluate(txn)
        if allowed:
            return FilterResult.allow(latency=latency, stage="sem_check")
        return FilterResult.deny(
            reason=f"{self.label}: {reason}", latency=latency, stage="sem_check"
        )


@dataclass
class CentralizedPlatform:
    """Handle on a platform protected by the centralised baseline."""

    system: SoCSystem
    monitor: SecurityMonitor
    module: CentralizedSecurityModule
    interfaces: Dict[str, CentralizedEnforcementInterface] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        return {
            "evaluations": self.module.evaluations,
            "violations": self.module.violations,
            "average_queue_delay": self.module.average_queue_delay(),
            "alerts": self.monitor.summary(),
        }

    def estimated_area(self) -> ResourceVector:
        """Back-of-the-envelope area: one SEM instead of N Local Firewalls.

        The SEM reuses the Local Firewall's checking logic but holds the whole
        platform's rule set; modelled as one LF sized for the union of rules.
        """
        from repro.metrics.area import AreaModel

        model = AreaModel()
        return model.platform_without_firewalls() + model.local_firewall_area(
            n_rules=self.module.config_memory.total_rule_count()
        ) + model.integration_overhead_per_firewall


def secure_platform_centralized(
    system: SoCSystem, config_memory_capacity: int = 16
) -> CentralizedPlatform:
    """Attach the centralised baseline to an unprotected platform.

    Installs one access-control rule per primary slave of ``system.config``
    (BRAM, dedicated IP registers, DDR) with the same read/write, data
    format and burst policies the distributed plan uses, but evaluated by a
    single central module on the slave side of the bus.  External-memory
    ciphering is *not* part of this baseline — SECA-style architectures
    control communications only, which is exactly the gap the paper's LCF
    fills.
    """
    policies = default_policies()
    soc_config = system.config
    sim = system.sim

    monitor = SecurityMonitor()
    global_rules = ConfigurationMemory("cfg_sem", capacity=max(16, config_memory_capacity))
    global_rules.add(soc_config.bram_base, soc_config.bram_size,
                     policies["internal_full"], label="bram")
    global_rules.add(soc_config.ip_regs_base, 4 * soc_config.ip_n_registers,
                     policies["ip_registers"], label="ip0_regs")
    global_rules.add(soc_config.ddr_base, soc_config.ddr_size,
                     policies["ddr_plain"], label="ddr")

    sem = CentralizedSecurityModule(sim, "sem", global_rules, monitor=monitor)
    platform = CentralizedPlatform(system=system, monitor=monitor, module=sem)

    for slave_name, port in system.slave_ports.items():
        interface = CentralizedEnforcementInterface(sem, label=f"sem@{slave_name}")
        port.attach_filter(interface)
        platform.interfaces[slave_name] = interface
    return platform
