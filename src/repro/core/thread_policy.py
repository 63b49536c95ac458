"""Thread-specific security levels (the paper's final perspective).

The conclusion of the paper suggests: "it can be interesting to study the
adaptation to thread-specific security where each thread has its own security
level".  This module implements that extension on top of the address-based
policies:

* a :class:`ThreadSecurityDirectory` assigns a *clearance level* to each
  software thread (threads are identified by the ``thread_id`` annotation the
  processor model attaches to its transactions),
* a :class:`ThreadClearanceCheck` is a checking module that can additionally
  require a minimum clearance in a rule's window.  A Local Firewall runs it
  in its ``checks`` suite next to the default modules, so an access whose
  issuing thread is below the required level is discarded exactly like any
  other violation, even if the address-based policy would have allowed it.

The extension is purely additive: a firewall with no clearance requirements,
or transactions without a ``thread_id``, behave exactly like the base design
(unknown threads get the directory's default clearance).  A suite with a
custom module turns the Security Builder's decision cache off, which a
verdict that depends on the issuing thread needs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.alerts import ViolationType
from repro.core.checks import CheckResult, SecurityCheck
from repro.core.policy import ConfigurationMemory, SecurityPolicy
from repro.soc.transaction import BusTransaction

__all__ = ["ThreadSecurityDirectory", "ThreadClearanceCheck", "THREAD_ID_ANNOTATION"]

#: Annotation key carrying the issuing thread on a transaction.
THREAD_ID_ANNOTATION = "thread_id"


class ThreadSecurityDirectory:
    """Trusted table mapping thread identifiers to clearance levels.

    Levels are small non-negative integers; higher means more privileged.
    The directory is deliberately tiny (it would live next to the
    Configuration Memories in on-chip memory) and supports runtime updates so
    the security manager can demote a misbehaving thread without touching the
    address-based rules.
    """

    def __init__(self, default_clearance: int = 0) -> None:
        if default_clearance < 0:
            raise ValueError("clearance levels must be non-negative")
        self.default_clearance = default_clearance
        self._levels: Dict[int, int] = {}
        self.updates = 0

    def set_clearance(self, thread_id: int, level: int) -> None:
        """Assign (or update) a thread's clearance level."""
        if level < 0:
            raise ValueError("clearance levels must be non-negative")
        self._levels[thread_id] = level
        self.updates += 1

    def clearance(self, thread_id: Optional[int]) -> int:
        """Clearance of a thread; unknown or missing threads get the default."""
        if thread_id is None:
            return self.default_clearance
        return self._levels.get(thread_id, self.default_clearance)

    def revoke(self, thread_id: int) -> bool:
        """Drop a thread back to the default clearance."""
        if thread_id in self._levels:
            del self._levels[thread_id]
            self.updates += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._levels)


class ThreadClearanceCheck(SecurityCheck):
    """Checking module enforcing per-thread clearance on top of address rules.

    ``clearance_requirements`` maps the base address of a rule of
    ``config_memory`` (the Configuration Memory of the firewall running the
    check) to the minimum clearance a thread needs for *any* access to that
    rule's window; ``write_clearance_requirements`` optionally raises the bar
    for writes only (a common pattern: many threads may read a shared table,
    only the manager thread may update it)::

        clearance = ThreadClearanceCheck(rules, directory, {VAULT_BASE: 2})
        LocalFirewall(sim, "lf_cpu0", rules,
                      checks=[*default_check_suite(), clearance])
    """

    name = "thread_clearance"

    def __init__(
        self,
        config_memory: ConfigurationMemory,
        directory: ThreadSecurityDirectory,
        clearance_requirements: Optional[Dict[int, int]] = None,
        write_clearance_requirements: Optional[Dict[int, int]] = None,
    ) -> None:
        self.config_memory = config_memory
        self.directory = directory
        self.clearance_requirements = dict(clearance_requirements or {})
        self.write_clearance_requirements = dict(write_clearance_requirements or {})
        self.denials = 0

    def require_clearance(self, rule_base: int, level: int, writes_only: bool = False) -> None:
        """Add or tighten a clearance requirement at runtime."""
        target = self.write_clearance_requirements if writes_only else self.clearance_requirements
        target[rule_base] = level

    def _required_level(self, txn: BusTransaction) -> Optional[int]:
        rule = self.config_memory.rule_for(txn.address, txn.size)
        if rule is None:
            return None
        required = self.clearance_requirements.get(rule.base)
        if txn.is_write:
            write_required = self.write_clearance_requirements.get(rule.base)
            if write_required is not None:
                required = max(required or 0, write_required)
        return required

    def check(self, policy: SecurityPolicy, txn: BusTransaction) -> CheckResult:
        required = self._required_level(txn)
        if required is None:
            return CheckResult.ok(self.name)
        thread_id = txn.annotations.get(THREAD_ID_ANNOTATION)
        clearance = self.directory.clearance(thread_id)
        if clearance >= required:
            return CheckResult.ok(self.name)
        self.denials += 1
        violation = (
            ViolationType.UNAUTHORIZED_WRITE if txn.is_write else ViolationType.UNAUTHORIZED_READ
        )
        return CheckResult.fail(
            self.name,
            violation,
            detail=f"thread {thread_id!r} clearance {clearance} below required level {required}",
        )
