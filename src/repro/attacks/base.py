"""Common attack infrastructure: outcomes, results and the attack interface.

Every attack runs against a *target*: an (optionally) secured platform.  The
attack drives the simulator itself, issuing
:class:`~repro.soc.transaction.Step` s through
:meth:`~repro.soc.system.SoCSystem.issue`, tampering with the external memory
or hijacking IPs, and :meth:`Attack.run` reports an :class:`AttackResult`
stating whether the attack achieved its goal and whether/where the security
enhancements caught it.  Detection scoring is intentionally conservative: an
attack only counts as *detected* if at least one firewall raised an alert
while it ran, and only counts as *contained* if the malicious transaction
never reached the bus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.secure import SecuredPlatform
from repro.soc.system import SoCSystem
from repro.soc.transaction import BusTransaction, Step

__all__ = ["AttackOutcome", "AttackResult", "Attack", "Attempt", "issue_train"]

#: What :meth:`Attack.attempt` reports: goal achieved, contained at the
#: interface, the one-line detail and the attack-specific extra record.
Attempt = Tuple[bool, bool, str, Dict[str, object]]


def issue_train(system: SoCSystem, steps: Sequence[Step], interval: int) -> List[BusTransaction]:
    """Issue ``steps[i]`` at cycle ``now + i * interval``, run the simulator
    until every one completes and return their transactions in issue order.

    Each step is one scheduled event, and its transaction is built when that
    event fires.
    """
    issued: List[BusTransaction] = []

    def fire(step: Step) -> None:
        issued.append(system.issue(step, drain=False))

    for index, step in enumerate(steps):
        system.sim.schedule(index * interval, fire, step)
    system.run()
    return issued


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

    Subclasses implement :meth:`attempt` against a plain or secured platform.
    ``security`` is None when attacking the unprotected baseline — every
    attack must still run (that is how the "without firewalls" column of the
    detection matrix is produced).
    """

    name = "attack"
    goal = ""
    #: Kinds of slave (``"ddr"``, ``"ip"``) or master (``"dma"``) the attack
    #: drives directly; the scenario builder refuses a topology without one.
    needs: Tuple[str, ...] = ()

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:  # pragma: no cover - interface
        raise NotImplementedError

    def run(self, system: SoCSystem, security: Optional[SecuredPlatform] = None) -> AttackResult:
        """Mount the attack and score it: every alert raised while
        :meth:`attempt` runs counts towards it, and the earliest one dates
        the detection."""
        before = len(security.monitor.alerts) if security is not None else 0
        achieved, contained, detail, extra = self.attempt(system, security)
        alerts = security.monitor.alerts[before:] if security is not None else []
        return AttackResult(
            attack=self.name,
            goal=self.goal,
            achieved_goal=achieved,
            detected=bool(alerts),
            contained_at_interface=contained,
            detection_cycle=min((alert.cycle for alert in alerts), default=None),
            alerts=len(alerts),
            detail=detail,
            extra=extra,
        )
