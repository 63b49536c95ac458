"""Common attack infrastructure: outcomes, results and the attack interface.

Every attack runs against a *target*: an (optionally) secured platform.  The
attack drives the simulator itself (injecting transactions, tampering with
the external memory, hijacking IPs) and then reports an
:class:`AttackResult` stating whether the attack achieved its goal and
whether/where the security enhancements caught it.  Detection scoring is
intentionally conservative: an attack only counts as *detected* if at least
one firewall raised an alert attributable to it, and only counts as
*contained* if the malicious transaction never reached the bus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.secure import SecuredPlatform
from repro.soc.system import SoCSystem

__all__ = ["AttackOutcome", "AttackResult", "Attack", "issue_sync"]


def issue_sync(system: SoCSystem, master: str, txn) -> None:
    """Issue a transaction on a master's port and run the simulator until it
    (and everything it triggered) completes.

    This is the workhorse of the attack scenarios: it lets an attack drive the
    victim platform one access at a time and inspect the transaction's final
    status, exactly like firmware single-stepping through an exploit.
    """
    port = system.master_ports[master]
    port.issue(txn, lambda _t: None)
    system.run()


class AttackOutcome(enum.Enum):
    """Net result of one attack run."""

    SUCCEEDED = "succeeded"          # attacker goal achieved, not detected
    DETECTED_BUT_EFFECTIVE = "detected_but_effective"  # goal achieved, alert raised
    BLOCKED = "blocked"              # goal not achieved, alert raised
    FAILED_SILENTLY = "failed_silently"  # goal not achieved, no alert


@dataclass
class AttackResult:
    """Everything an experiment needs to score one attack."""

    attack: str
    goal: str
    achieved_goal: bool
    detected: bool
    contained_at_interface: bool = False
    detection_cycle: Optional[int] = None
    alerts: int = 0
    detail: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def outcome(self) -> AttackOutcome:
        if self.achieved_goal and not self.detected:
            return AttackOutcome.SUCCEEDED
        if self.achieved_goal and self.detected:
            return AttackOutcome.DETECTED_BUT_EFFECTIVE
        if not self.achieved_goal and self.detected:
            return AttackOutcome.BLOCKED
        return AttackOutcome.FAILED_SILENTLY

    def describe(self) -> str:
        """One-line summary used by campaign reports."""
        return (
            f"{self.attack}: {self.outcome.value} "
            f"(goal={'achieved' if self.achieved_goal else 'denied'}, "
            f"alerts={self.alerts}"
            + (f", detected at cycle {self.detection_cycle}" if self.detection_cycle is not None else "")
            + ")"
        )


class Attack:
    """Base class for attacks.

    Subclasses implement :meth:`run` against a plain or secured platform.
    ``security`` is None when attacking the unprotected baseline — every
    attack must still run (that is how the "without firewalls" column of the
    detection matrix is produced).
    """

    name = "attack"
    goal = ""

    def run(self, system: SoCSystem, security: Optional[SecuredPlatform] = None) -> AttackResult:  # pragma: no cover - interface
        raise NotImplementedError

    # -- helpers shared by concrete attacks -------------------------------------------

    @staticmethod
    def _alerts_since(security: Optional[SecuredPlatform], baseline: int) -> int:
        if security is None:
            return 0
        return max(0, len(security.monitor.alerts) - baseline)

    @staticmethod
    def _detection_cycle_since(security: Optional[SecuredPlatform], baseline: int) -> Optional[int]:
        if security is None:
            return None
        new_alerts = security.monitor.alerts[baseline:]
        if not new_alerts:
            return None
        return min(alert.cycle for alert in new_alerts)
