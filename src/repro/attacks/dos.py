"""Denial-of-service attacks: overwhelming traffic injection.

The threat model lists DoS explicitly: "cancelling out security services to
stop the system, disabling communications, injecting dummy data to create
overwhelming traffic".  The flood attack here hijacks one master and makes it
inject a dense stream of dummy reads; success is measured by how much of the
flood actually reaches the shared bus (and therefore steals bandwidth from
the legitimate processors).  A Local Firewall configured with a traffic-flood
threshold drops the excess requests at the infected IP's interface and raises
TRAFFIC_FLOOD alerts.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack, Attempt, issue_train
from repro.core.secure import SecuredPlatform
from repro.soc.system import SoCSystem
from repro.soc.transaction import Step, TransactionStatus

__all__ = ["DoSFloodAttack"]


class DoSFloodAttack(Attack):
    """Flood the bus with dummy reads from a hijacked master."""

    name = "dos_flood"
    goal = "saturate the shared bus with dummy traffic"

    def __init__(
        self,
        hijacked_master: str = "cpu2",
        n_requests: int = 200,
        interval: int = 1,
        target_offset: int = 0x0,
        success_fraction: float = 0.5,
    ) -> None:
        if n_requests <= 0:
            raise ValueError("n_requests must be positive")
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if not 0.0 < success_fraction <= 1.0:
            raise ValueError("success_fraction must be in (0, 1]")
        self.hijacked_master = hijacked_master
        self.n_requests = n_requests
        self.interval = interval
        self.target_offset = target_offset
        self.success_fraction = success_fraction

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        # Count distinct transactions, not raw monitor observations: on a
        # hierarchical fabric the monitor records one observation per segment
        # crossed, which would inflate a cross-segment flood by its hop count.
        baseline_ids = {t.txn_id for t in system.bus.monitor.history}
        # The flood is issued through the hijacked master's own (possibly
        # firewalled) port, under the hijacked master's identity.
        probe = Step(self.hijacked_master, "read", system.config.bram_base + self.target_offset)
        flood = issue_train(system, [probe] * self.n_requests, self.interval)

        reached_bus = len(
            {t.txn_id for t in system.bus.monitor.history} - baseline_ids
        )
        dropped = sum(1 for txn in flood if txn.status is not TransactionStatus.COMPLETED)
        return (
            reached_bus >= self.success_fraction * self.n_requests,
            dropped > 0,
            (
                f"{reached_bus}/{self.n_requests} flood requests reached the bus, "
                f"{dropped} dropped at the interface"
            ),
            {"reached_bus": reached_bus, "dropped_at_interface": dropped},
        )
