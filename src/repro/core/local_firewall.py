"""The Local Firewall (LF).

"Local Firewalls monitor the communications using the security parameters
[...].  For a write operation, before reaching the bus all data are checked.
If the security rules are respected the data can be sent to the bus.  For a
read operation, all data are checked before reaching the IP. [...] In case
there is a violation of one of the security rules, the data is discarded."
(paper, section IV-B1)

The LF is modelled as a :class:`repro.soc.ports.TransactionFilter` so it can
be interposed on any master or slave port.  Internally it keeps the three
blocks of the paper's Figure 1:

* :class:`CommunicationBlock` (LFCB) -- snoops the port and raises
  ``secpol_req`` for every transaction (modelled as a counter plus the entry
  point into the firewall),
* :class:`SecurityBuilder` (SB) -- fetches the Security Policy from the
  Configuration Memory and runs the checking modules; charges the 12-cycle
  latency of Table II,
* :class:`FirewallInterface` (FI) -- gates the datapath according to the alert
  signals (modelled by returning ALLOW/DENY filter results and notifying the
  :class:`~repro.core.alerts.SecurityMonitor`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.alerts import SecurityAlert, SecurityMonitor, ViolationType
from repro.core.checks import (
    AddressRangeCheck,
    BurstLengthCheck,
    CheckResult,
    DataFormatCheck,
    ReadWriteAccessCheck,
    SecurityCheck,
    default_check_suite,
)
from repro.core.constants import SECURITY_BUILDER_CYCLES
from repro.core.policy import ConfigurationMemory, PolicyLookupError, SecurityPolicy
from repro.soc.kernel import Simulator
from repro.soc.ports import FilterAction, FilterResult, TransactionFilter
from repro.soc.transaction import BusTransaction

__all__ = [
    "CommunicationBlock",
    "SecurityBuilder",
    "FirewallInterface",
    "LocalFirewall",
    "use_decision_cache",
    "decision_cache_enabled",
]

# Looking a member up on an Enum class costs a __getattr__ hook per access.
_ALLOW = FilterAction.ALLOW

# Whether new Security Builders memoise verdicts.  The differential harness
# turns it off to build platforms on the uncached per-transaction reference
# path.
_DECISION_CACHE_DEFAULT = True


def use_decision_cache(enabled: bool = True) -> None:
    """Set whether Security Builders built from now on memoise verdicts."""
    global _DECISION_CACHE_DEFAULT
    _DECISION_CACHE_DEFAULT = enabled


def decision_cache_enabled() -> bool:
    """Whether new Security Builders memoise verdicts by default."""
    return _DECISION_CACHE_DEFAULT


class CommunicationBlock:
    """LF Communication Block: receives/transmits bus signals and triggers the
    security-policy request (``secpol_req``), which
    :meth:`LocalFirewall.filter_request` counts here for every transaction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.secpol_requests = 0


# Checking modules whose verdict is a pure function of (policy, transaction
# attributes, address windows) — the precondition for memoising decisions.
_STATELESS_CHECKS = (
    ReadWriteAccessCheck,
    DataFormatCheck,
    BurstLengthCheck,
    AddressRangeCheck,
)


class SecurityBuilder:
    """Security Builder: policy fetch plus the checking modules.

    Charges :data:`~repro.core.constants.SECURITY_BUILDER_CYCLES` per
    evaluation, matching Table II.

    Verdicts are memoised: the decision for a transaction depends only on the
    installed rules and the transaction's (address, size, direction, width,
    burst length), so repeated traffic with the same shape — the bulk of any
    workload sweep — skips the policy scan and the checking modules entirely.
    The cache is invalidated whenever the Configuration Memory's rule set
    changes (tracked via its ``generation`` counter), so runtime
    reconfiguration takes effect on the very next transaction, exactly as in
    the uncached model.  All statistics (evaluations, violations, lookup and
    miss counts, cycles charged) are maintained identically on hits and
    misses.  Caching is automatically disabled when custom, potentially
    stateful checking modules are installed, and for a builder built after
    ``use_decision_cache(False)``.  The check suite is fixed at
    construction: the caching decision and the address-range module whose
    windows enter every key are both taken from it once.
    """

    #: Upper bound on memoised verdicts before the cache is reset (guards
    #: address-sweeping workloads against unbounded growth).
    CACHE_LIMIT = 65536

    def __init__(
        self,
        name: str,
        config_memory: ConfigurationMemory,
        checks: Optional[Sequence[SecurityCheck]] = None,
        latency_cycles: int = SECURITY_BUILDER_CYCLES,
    ) -> None:
        self.name = name
        self.config_memory = config_memory
        self.checks: List[SecurityCheck] = list(checks) if checks is not None else default_check_suite()
        self.latency_cycles = latency_cycles
        self.evaluations = 0
        self.violations = 0
        self.cycles_charged = 0
        ranges = [check for check in self.checks if isinstance(check, AddressRangeCheck)]
        # A key snapshots one module's windows, so a suite with two is not cached.
        self.cache_enabled = _DECISION_CACHE_DEFAULT and len(ranges) <= 1 and all(
            type(check) in _STATELESS_CHECKS for check in self.checks
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: Dict[tuple, Tuple[Optional[SecurityPolicy], List[CheckResult], bool, bool]] = {}
        self._cache_generation = config_memory.generation
        #: The suite's address-range module, if any.
        self._address_range: Optional[AddressRangeCheck] = ranges[0] if ranges else None

    def invalidate_cache(self) -> None:
        """Drop every memoised verdict (e.g. after mutating a checking module)."""
        self._cache.clear()
        self._cache_generation = self.config_memory.generation

    def evaluate(
        self, txn: BusTransaction, charge_latency: bool = True
    ) -> Tuple[Optional[SecurityPolicy], List[CheckResult]]:
        """Look up the policy and run every checking module.

        Returns ``(policy, results)``; ``policy`` is None on a lookup miss, in
        which case ``results`` contains a single synthetic POLICY_MISS failure.
        ``charge_latency=False`` is used for response-path re-validation, which
        the hardware overlaps with the data transfer.
        """
        if charge_latency:
            self.evaluations += 1
            self.cycles_charged += self.latency_cycles

        if not self.cache_enabled:
            return self._evaluate_uncached(txn)[:2]

        memory = self.config_memory
        if memory.generation != self._cache_generation:
            self.invalidate_cache()

        # The memoisation key: a verdict is a pure function of this tuple
        # (given a fixed rule set, tracked by the memory's ``generation``).
        # Its last item snapshots the address-range windows, empty when none
        # are set.
        windows = self._address_range.windows if self._address_range is not None else None
        width = txn.width
        burst_length = txn.burst_length
        key = (
            txn.address,
            width * burst_length,
            txn.is_write,
            width,
            burst_length,
            tuple(tuple(window) for window in windows) if windows else (),
        )
        hit = self._cache.get(key)
        if hit is not None:
            policy, results, failed, missed_rules = hit
            self.cache_hits += 1
            # The memory's lookup statistics, as an uncached lookup keeps them.
            memory.lookup_count += 1
            if missed_rules:
                memory.miss_count += 1
            if failed:
                self.violations += 1
            return policy, results

        self.cache_misses += 1
        policy, results, failed, missed_rules = self._evaluate_uncached(txn)
        if len(self._cache) >= self.CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = (policy, results, failed, missed_rules)
        return policy, results

    def _evaluate_uncached(
        self, txn: BusTransaction
    ) -> Tuple[Optional[SecurityPolicy], List[CheckResult], bool, bool]:
        """The original evaluation path; also reports (failed, missed_rules)
        so the cache can replay statistics faithfully."""
        memory = self.config_memory
        misses_before = memory.miss_count
        try:
            policy = memory.lookup(txn.address, txn.width * txn.burst_length)
        except PolicyLookupError as exc:
            self.violations += 1
            results = [
                CheckResult.fail("policy_lookup", ViolationType.POLICY_MISS, detail=str(exc))
            ]
            return None, results, True, True
        missed_rules = memory.miss_count > misses_before
        results = [check.check(policy, txn) for check in self.checks]
        failed = any(not result.passed for result in results)
        if failed:
            self.violations += 1
        return policy, results, failed, missed_rules


class FirewallInterface:
    """Firewall Interface: the datapath gate driven by the alert signals."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.passed = 0
        self.discarded = 0

    def gate(self, allowed: bool) -> bool:
        """Record the gating decision; returns it unchanged."""
        if allowed:
            self.passed += 1
        else:
            self.discarded += 1
        return allowed


class LocalFirewall(TransactionFilter):
    """A complete Local Firewall, usable on master and slave ports.

    Parameters
    ----------
    sim:
        Simulator (for timestamping alerts).
    name:
        Firewall instance name, e.g. ``"lf_cpu0"``.
    config_memory:
        The trusted Configuration Memory holding this firewall's policy rules.
    monitor:
        The platform's :class:`SecurityMonitor`; may be None for standalone use.
    protected_ip:
        Name of the IP this firewall guards (reporting only).
    flood_threshold / flood_window:
        Optional DoS heuristic: if more than ``flood_threshold`` requests are
        observed within ``flood_window`` cycles, a TRAFFIC_FLOOD alert is
        raised and the excess requests are dropped.
    """

    name = "local_firewall"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config_memory: ConfigurationMemory,
        monitor: Optional[SecurityMonitor] = None,
        protected_ip: str = "",
        flood_threshold: Optional[int] = None,
        flood_window: int = 100,
    ) -> None:
        self.sim = sim
        self.name = name
        self.monitor = monitor
        self.protected_ip = protected_ip or name

        self.communication_block = CommunicationBlock(f"{name}.lfcb")
        self.security_builder = SecurityBuilder(f"{name}.sb", config_memory)
        self.firewall_interface = FirewallInterface(f"{name}.fi")

        self.flood_threshold = flood_threshold
        self.flood_window = flood_window
        self._request_cycles: Deque[int] = deque()

        self.quarantined = False
        self.alerts_raised = 0
        #: Annotation key of the policy SPI an allowed request was checked under.
        self._spi_key = f"{name}.spi"

    # -- configuration memory passthroughs -------------------------------------------

    @property
    def config_memory(self) -> ConfigurationMemory:
        return self.security_builder.config_memory

    # -- alert plumbing -----------------------------------------------------------------

    def _raise(self, txn: BusTransaction, violation: ViolationType, detail: str) -> None:
        self.alerts_raised += 1
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

    def _emit_decision(self, txn: BusTransaction, allowed: bool, reason: str = "") -> None:
        """Publish the gating verdict on the instrumentation bus, if any."""
        event_bus = self.sim.event_bus
        if event_bus is not None:
            # Hot path: counting-only buses take the payload-free lane.
            if event_bus.count_only:
                event_bus.count("firewall.decision")
            else:
                event_bus.emit(
                    "firewall.decision", self.sim.now, self.name,
                    master=txn.master, address=txn.address, write=txn.is_write,
                    allowed=allowed, reason=reason,
                )

    # -- DoS heuristic ---------------------------------------------------------------------

    def _flood_detected(self) -> bool:
        """Record a request; True above the threshold (callers check that
        ``flood_threshold`` is set)."""
        now = self.sim.now
        self._request_cycles.append(now)
        # Drop entries that fell out of the sliding window.
        cutoff = now - self.flood_window
        while self._request_cycles and self._request_cycles[0] < cutoff:
            self._request_cycles.popleft()
        return len(self._request_cycles) > self.flood_threshold

    # -- TransactionFilter interface ----------------------------------------------------------

    def filter_request(self, txn: BusTransaction) -> FilterResult:
        # The LFCB raises ``secpol_req`` for the transaction entering the firewall.
        block = self.communication_block
        block.secpol_requests += 1
        txn.annotations.setdefault("secpol_req_by", block.name)

        if self.quarantined:
            self._raise(txn, ViolationType.UNAUTHORIZED_WRITE if txn.is_write else ViolationType.UNAUTHORIZED_READ,
                        detail=f"{self.protected_ip} is quarantined")
            self.firewall_interface.gate(False)
            self._emit_decision(txn, False, reason="quarantined")
            return FilterResult.deny(
                reason=f"{self.name}: IP quarantined",
                latency=self.security_builder.latency_cycles,
                stage="security_builder",
            )

        if self.flood_threshold is not None and self._flood_detected():
            self._raise(txn, ViolationType.TRAFFIC_FLOOD,
                        detail=f"more than {self.flood_threshold} requests in {self.flood_window} cycles")
            self.firewall_interface.gate(False)
            self._emit_decision(txn, False, reason="traffic_flood")
            return FilterResult.deny(
                reason=f"{self.name}: traffic flood",
                latency=self.security_builder.latency_cycles,
                stage="security_builder",
            )

        builder = self.security_builder
        policy, results = builder.evaluate(txn)
        for first in results:
            if not first.passed:
                break
        else:
            if policy is not None:
                txn.annotations[self._spi_key] = policy.spi
            self.firewall_interface.passed += 1
            if self.sim.event_bus is not None:
                self._emit_decision(txn, True)
            return FilterResult(_ALLOW, builder.latency_cycles, "security_builder")
        assert first.violation is not None
        self._raise(txn, first.violation, first.detail)
        self.firewall_interface.gate(False)
        self._emit_decision(txn, False, reason=first.violation.value)
        return FilterResult.deny(
            reason=f"{self.name}: {first.violation.value} ({first.detail})",
            latency=builder.latency_cycles,
            stage="security_builder",
        )

    def filter_response(self, txn: BusTransaction) -> FilterResult:
        if not txn.is_read:
            return FilterResult(_ALLOW, 0, self.name)
        # Response-path re-validation: the policy may have been reconfigured
        # while the transaction was in flight, and read data must be checked
        # "before reaching the IP".  The hardware overlaps this with the data
        # transfer, so no extra cycles are charged.
        policy, results = self.security_builder.evaluate(txn, charge_latency=False)
        for first in results:
            if not first.passed:
                break
        else:
            self.firewall_interface.passed += 1
            return FilterResult(_ALLOW, 0, self.name)
        assert first.violation is not None
        self._raise(txn, first.violation, first.detail)
        self.firewall_interface.gate(False)
        return FilterResult.deny(
            reason=f"{self.name}: response {first.violation.value}",
            stage=self.name,
        )

    # -- reporting ----------------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-firewall statistics used by reports and tests."""
        return {
            "name": self.name,
            "protected_ip": self.protected_ip,
            "secpol_requests": self.communication_block.secpol_requests,
            "evaluations": self.security_builder.evaluations,
            "violations": self.security_builder.violations,
            "sb_cycles_charged": self.security_builder.cycles_charged,
            "passed": self.firewall_interface.passed,
            "discarded": self.firewall_interface.discarded,
            "sb_cache_hits": self.security_builder.cache_hits,
            "sb_cache_misses": self.security_builder.cache_misses,
            "alerts": self.alerts_raised,
            "rules": len(self.config_memory),
            "quarantined": self.quarantined,
        }
