"""A raw attacker-controlled bus master.

Several attack scenarios need a master that is *not* one of the well-behaved
processors: a hijacked IP running malicious code, or an external agent
injecting traffic.  :class:`AttackerMaster` wraps a
:class:`~repro.soc.ports.MasterPort` and issues arbitrary transactions,
collecting their outcomes.

When the attacker models a hijacked *protected* IP, the caller connects the
attacker to that IP's existing (firewalled) master port — the firewall then
gets the chance to stop the malicious traffic at the interface, which is the
paper's containment requirement.  When the attacker models an unprotected
injection point, a fresh unfiltered port is created on the bus.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.soc.fabric import InterconnectFabric
from repro.soc.kernel import Component, Simulator
from repro.soc.ports import MasterPort
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus

__all__ = ["AttackerMaster"]


class AttackerMaster(Component):
    """Issues attacker-chosen transactions through a master port."""

    def __init__(self, sim: Simulator, name: str, port: MasterPort) -> None:
        super().__init__(sim, name)
        self.port = port
        self.issued: List[BusTransaction] = []
        self.completed: List[BusTransaction] = []
        self.blocked: List[BusTransaction] = []

    @classmethod
    def with_new_port(
        cls,
        sim: Simulator,
        bus: InterconnectFabric,
        name: str = "attacker",
        segment: Optional[str] = None,
    ) -> "AttackerMaster":
        """Create an attacker with its own unfiltered port on the bus
        (modelling an injection point outside any firewall).  ``segment``
        places the injection point on a specific bus segment (None = the
        default segment)."""
        port = MasterPort(sim, f"{name}_port")
        bus.connect_master(port, segment=segment)
        return cls(sim, name, port)

    # -- issuing -------------------------------------------------------------------

    def inject(
        self,
        operation: BusOperation,
        address: int,
        data: Optional[bytes] = None,
        width: int = 4,
        burst_length: int = 1,
        on_done: Optional[Callable[[BusTransaction], None]] = None,
    ) -> BusTransaction:
        """Issue one transaction under the attacker's master name."""
        txn = BusTransaction(
            master=self.name,
            operation=operation,
            address=address,
            width=width,
            burst_length=burst_length,
            data=data,
        )
        self.issued.append(txn)
        self.bump("injected")

        def _done(result: BusTransaction) -> None:
            if result.status is TransactionStatus.COMPLETED:
                self.completed.append(result)
                self.bump("completed")
            else:
                self.blocked.append(result)
                self.bump("blocked")
            if on_done is not None:
                on_done(result)

        self.port.issue(txn, _done)
        return txn

    def inject_read(self, address: int, width: int = 4, burst_length: int = 1, **kwargs) -> BusTransaction:
        return self.inject(BusOperation.READ, address, width=width, burst_length=burst_length, **kwargs)

    def inject_write(self, address: int, data: bytes, width: int = 4, **kwargs) -> BusTransaction:
        burst = max(1, len(data) // width)
        return self.inject(BusOperation.WRITE, address, data=data, width=width, burst_length=burst, **kwargs)

    def flood(
        self,
        address: int,
        count: int,
        interval: int = 1,
        width: int = 4,
    ) -> None:
        """Schedule ``count`` back-to-back reads, one every ``interval`` cycles."""
        for index in range(count):
            self.sim.schedule(index * interval, self.inject_read, address, width)

    # -- scoring helpers --------------------------------------------------------------

    def success_count(self) -> int:
        """Transactions that completed normally (attacker got what it wanted)."""
        return len(self.completed)

    def blocked_count(self) -> int:
        return len(self.blocked)

    def leaked_data(self) -> List[bytes]:
        """Data returned to the attacker by completed reads."""
        return [t.data for t in self.completed if t.is_read and t.data is not None]
