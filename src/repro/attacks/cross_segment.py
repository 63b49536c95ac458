"""Cross-segment attacks: hijacked IPs reaching across the fabric.

On a hierarchical interconnect the interesting question is no longer only
*whether* an attack is stopped but *where*: at the infected IP's own leaf
interface (the paper's distributed requirement), at the bridge between
segments (the centralized-security-bridge analogue), or not at all.  These
attacks originate on one bus segment and target a slave on another, so the
transaction must cross at least one :class:`~repro.soc.fabric.bridge.
BusBridge` — and every result records where containment happened, letting
the scenario matrix compare leaf, bridge and both placements on the same
topology.

Both attacks degrade gracefully on a flat single-bus platform (there is
simply no bridge to cross), so they run under the differential harness on
any topology.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack, Attempt, issue_train
from repro.attacks.hijack import SensitiveRegisterProbe
from repro.core.secure import SecuredPlatform
from repro.soc.system import SoCSystem
from repro.soc.transaction import Step, TransactionStatus

__all__ = ["CrossSegmentProbe", "CrossSegmentWriteStorm"]


class CrossSegmentProbe(SensitiveRegisterProbe):
    """A hijacked master on one segment reads a remote IP's secret register.

    With leaf placement the probe dies at the hijacked master's own Local
    Firewall (``BLOCKED_AT_MASTER``); with bridge placement it crosses its
    home segment unchecked and is only stopped — if the bridge's rules cover
    the register file at all — at the bridge (``BLOCKED_AT_BRIDGE``).  A
    word-wide read that the bridge's address-range rules allow goes through:
    the per-master restriction only a leaf firewall can express is exactly
    what the centralized placement loses.
    """

    name = "cross_segment_probe"
    goal = "read secret material from an IP on another bus segment"

    def __init__(
        self,
        hijacked_master: str = "dma",
        register_index: int = 0,
        secret_value: int = 0x5EC2_E755,
    ) -> None:
        super().__init__(hijacked_master, register_index, secret_value)


class CrossSegmentWriteStorm(Attack):
    """A storm of malformed writes from one segment into a remote IP.

    ``n_requests`` byte-wide writes (forbidden by the IP's Allowed Data
    Format) are issued back to back at a control register across the fabric.
    The score records how many crossed into the target, how many died at the
    issuing leaf and how many died at a bridge — the containment-location
    histogram the placement comparison is about.  On an unprotected platform
    the storm corrupts the register and also burns bridge/segment bandwidth
    along the whole path.
    """

    name = "cross_segment_write_storm"
    goal = "corrupt a remote IP's control register with a storm of malformed writes"
    needs = ("ip",)

    def __init__(
        self,
        hijacked_master: str = "cpu0",
        register_index: int = 4,
        n_requests: int = 24,
        interval: int = 3,
    ) -> None:
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if interval < 0:
            raise ValueError("interval must be non-negative")
        self.hijacked_master = hijacked_master
        self.register_index = register_index
        self.n_requests = n_requests
        self.interval = interval

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        original = system.register_ip.read_register(self.register_index)
        address = system.config.ip_regs_base + 4 * self.register_index
        storm = [
            Step(self.hijacked_master, "write", address, width=1, data=bytes([index & 0xFF]))
            for index in range(self.n_requests)
        ]
        statuses = [txn.status for txn in issue_train(system, storm, self.interval)]

        corrupted = system.register_ip.read_register(self.register_index) != original
        blocked_at_master = sum(1 for s in statuses if s is TransactionStatus.BLOCKED_AT_MASTER)
        blocked_at_bridge = sum(1 for s in statuses if s is TransactionStatus.BLOCKED_AT_BRIDGE)
        landed = sum(1 for s in statuses if s is TransactionStatus.COMPLETED)
        return (
            corrupted,
            blocked_at_master == len(statuses),
            (
                f"{landed}/{len(statuses)} writes landed "
                f"({blocked_at_master} blocked at master, {blocked_at_bridge} at bridge)"
            ),
            {
                "landed": landed,
                "blocked_at_master": blocked_at_master,
                "blocked_at_bridge": blocked_at_bridge,
                "blocked_elsewhere": len(statuses) - landed - blocked_at_master - blocked_at_bridge,
            },
        )
