"""One shared-bus segment of the interconnect fabric.

The paper's flat system bus is a fabric with one such segment.  A segment
works as follows:

* masters submit transactions through their :class:`~repro.soc.ports.MasterPort`,
* an arbiter (round-robin by default, fixed-priority available) grants one
  transaction at a time,
* the granted transaction occupies the segment for an address phase plus one
  data beat per ``width`` bytes, then is routed by the segment's address map
  to the target :class:`~repro.soc.ports.SlavePort` — which may be the
  ingress endpoint of a :class:`~repro.soc.fabric.bridge.BusBridge` when the
  target region lives on another segment,
* the slave's reply is returned to the issuing master port.

A :class:`BusMonitor` records every transaction that actually reached the
segment (blocked-at-master transactions never show up here, which is exactly
the containment property the firewalls must provide).

``latency_stage`` names the bucket the segment charges its transfer cycles
to: ``"bus"`` by default, which a one-segment fabric keeps, while
:meth:`~repro.soc.fabric.fabric.InterconnectFabric.finalize` names each
segment of a multi-segment fabric ``"bus:<segment>"`` for per-hop latency
attribution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.soc.address_map import AddressMap, DecodeError
from repro.soc.fabric.arbiters import Arbiter, RoundRobinArbiter
from repro.soc.kernel import Component, Simulator
from repro.soc.ports import MasterPort, SlavePort
from repro.soc.transaction import BusTransaction, TransactionStatus

__all__ = ["BusSegment", "BusMonitor"]

_GRANTED = TransactionStatus.GRANTED


@dataclass
class BusMonitor:
    """Records transactions observed on one segment (after arbitration).

    This models the observability the paper relies on for "monitoring the
    communications in order to check if any abnormal or unauthorized access to
    the communication architecture is performed".
    """

    history: List[BusTransaction] = field(default_factory=list)
    per_master: Dict[str, int] = field(default_factory=dict)
    per_slave: Dict[str, int] = field(default_factory=dict)

    def observe(self, txn: BusTransaction, slave: str) -> None:
        self.history.append(txn)
        self.per_master[txn.master] = self.per_master.get(txn.master, 0) + 1
        self.per_slave[slave] = self.per_slave.get(slave, 0) + 1

    def count(self) -> int:
        return len(self.history)


class BusSegment(Component):
    """A single shared bus connecting its master ports to its slave ports."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "segment",
        address_map: Optional[AddressMap] = None,
        arbiter: Optional[Arbiter] = None,
        address_phase_cycles: int = 1,
        data_phase_cycles_per_beat: int = 1,
        bus_width: int = 4,
    ) -> None:
        super().__init__(sim, name)
        self.address_map = address_map or AddressMap()
        self.arbiter = arbiter or RoundRobinArbiter()
        self.address_phase_cycles = address_phase_cycles
        self.data_phase_cycles_per_beat = data_phase_cycles_per_beat
        self.bus_width = bus_width
        self.latency_stage = "bus"
        self.monitor = BusMonitor()

        self._master_ports: Dict[str, MasterPort] = {}
        self._slave_ports: Dict[str, SlavePort] = {}
        self._waiting: Dict[str, Deque[Tuple[BusTransaction, Callable]]] = {}
        self._busy = False

    # -- wiring ------------------------------------------------------------------

    def connect_master(self, port: MasterPort) -> None:
        """Attach a master port to the segment.

        Arbitration queues are keyed by the *master name carried in each
        transaction* (``txn.master``), not by the port name; they are created
        lazily on the first submission from a given master, which also fixes
        the round-robin ordering deterministically.
        """
        if port.name in self._master_ports:
            raise ValueError(f"master port {port.name} already connected")
        self._master_ports[port.name] = port
        port.connect_bus(self)

    def connect_slave(self, port: SlavePort, slave_name: Optional[str] = None) -> None:
        """Attach a slave port to the segment.

        ``slave_name`` is the name used in the address map's regions (defaults
        to the port's device name, falling back to the port name).
        """
        key = slave_name or getattr(port.device, "name", None) or port.name
        if key in self._slave_ports:
            raise ValueError(f"slave {key} already connected")
        self._slave_ports[key] = port

    @property
    def master_names(self) -> List[str]:
        return list(self._master_ports)

    @property
    def slave_names(self) -> List[str]:
        return [name for name in self._slave_ports if not name.startswith("bridge:")]

    def slave_port(self, name: str) -> Optional[SlavePort]:
        """The slave port registered under ``name`` (bridge endpoints included)."""
        return self._slave_ports.get(name)

    # -- request path ---------------------------------------------------------------

    def submit(self, txn: BusTransaction, reply: Callable[[BusTransaction], None]) -> None:
        """Queue a transaction for arbitration (called by a master port)."""
        master = txn.master
        waiting = self._waiting
        queue = waiting.get(master)
        if queue is None:
            # Queues are created on a master's first submission.
            queue = waiting[master] = deque()
            self.arbiter.add_master(master)
        queue.append((txn, reply))
        stats = self.stats
        stats["submitted"] = stats.get("submitted", 0) + 1
        self._try_grant()

    def _try_grant(self) -> None:
        if self._busy:
            return
        winner = self.arbiter.select(self._waiting)
        if winner is not None:
            self._grant(winner)

    def _grant(self, winner: str) -> None:
        # Not in _try_grant: the reply lambdas make self and reply cells.
        txn, reply = self._waiting[winner].popleft()
        self._busy = True
        txn.granted_at = self.sim.now
        txn.status = _GRANTED
        stats = self.stats
        stats["granted"] = stats.get("granted", 0) + 1

        # Bus occupancy: address phase plus one data phase per beat.
        burst_length = txn.burst_length
        transfer_cycles = self.address_phase_cycles + self.data_phase_cycles_per_beat * burst_length
        latencies = txn.latency_breakdown
        stage = self.latency_stage
        latencies[stage] = latencies.get(stage, 0) + transfer_cycles

        try:
            region = self.address_map.decode(txn.address, txn.width * burst_length)
        except DecodeError:
            self.bump("decode_errors")
            self.sim.schedule(transfer_cycles, self._finish_decode_error, txn, reply)
            return

        slave_port = self._slave_ports.get(region.slave)
        if slave_port is None:
            self.bump("decode_errors")
            self.sim.schedule(transfer_cycles, self._finish_decode_error, txn, reply)
            return

        self.monitor.observe(txn, region.slave)
        event_bus = self.sim.event_bus
        if event_bus is not None:
            # Hot path: counting-only buses take the payload-free lane.
            if event_bus.count_only:
                event_bus.count("bus.granted")
            else:
                event_bus.emit(
                    "bus.granted", self.sim.now, self.name,
                    master=txn.master, slave=region.slave, address=txn.address,
                    txn_id=txn.txn_id,
                )
        if slave_port.split_transactions:
            # Split transaction (bridge endpoints): the segment is released as
            # soon as the request is handed off instead of being held until
            # the remote reply returns.  Without this, two segments forwarding
            # into each other through one bridge would hold their buses in a
            # circular wait — the classic bridged-bus deadlock that PLBv46 and
            # AXI bridges avoid the same way.
            self.sim.schedule(
                transfer_cycles, slave_port.deliver, txn, lambda t: self._on_split_reply(t, reply)
            )
            self.sim.schedule(transfer_cycles, self._release_after_handoff)
            return
        self.sim.schedule(
            transfer_cycles, slave_port.deliver, txn, lambda t: self._release_and_reply(t, reply)
        )

    def _finish_decode_error(self, txn: BusTransaction, reply: Callable) -> None:
        txn.mark_blocked(self.sim.now, TransactionStatus.DECODE_ERROR, "address decode error")
        self._release_and_reply(txn, reply)

    # -- response path ----------------------------------------------------------------

    def _release_after_handoff(self) -> None:
        """Free the segment once a split request is handed to its bridge."""
        self._busy = False
        self._try_grant()

    def _on_split_reply(self, txn: BusTransaction, reply: Callable[[BusTransaction], None]) -> None:
        """Return path of a split transaction: the segment was already
        released at handoff, so only complete and reply."""
        self.bump("completed")
        reply(txn)

    def _release_and_reply(self, txn: BusTransaction, reply: Callable[[BusTransaction], None]) -> None:
        self._busy = False
        stats = self.stats
        stats["completed"] = stats.get("completed", 0) + 1
        # Return path occupies the bus for one beat; folded into the response
        # delivery so a long slave access does not hold the bus (split
        # transactions, as PLBv46 and AXI do).
        reply(txn)
        self._try_grant()

    # -- introspection ------------------------------------------------------------------

    def pending_count(self) -> int:
        """Transactions queued but not yet granted."""
        return sum(len(q) for q in self._waiting.values())
