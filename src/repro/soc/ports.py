"""Master/slave ports and the transaction-filter interface.

The paper's central idea is that every IP reaches the bus through a dedicated
interface that enforces that IP's security policy.  In the simulator that
interface is a *port*:

* a :class:`MasterPort` sits between a bus master (processor, DMA, dedicated
  IP) and the bus,
* a :class:`SlavePort` sits between the bus and a slave device (BRAM, DDR,
  register-file IP).

Both kinds of port hold an ordered chain of :class:`TransactionFilter`
objects.  The Local Firewall and the Local Ciphering Firewall of
:mod:`repro.core` are implemented as such filters, but the substrate is
agnostic: a port with an empty chain is exactly the unprotected system used
as Table I's baseline.

Filters can:

* allow or deny a transaction (deny at a master port = the attack never
  reaches the bus, the containment property the paper requires),
* add pipeline latency (the Security Builder's 12 cycles, the AES core's 11
  cycles, the hash-tree walker's 20 cycles from Table II),
* transform the data payload (ciphering on the external-memory path),
* attach annotations/alerts that the monitoring layer collects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.soc.kernel import Component, Simulator
from repro.soc.transaction import BusTransaction, TransactionStatus

__all__ = [
    "FilterAction",
    "FilterResult",
    "TransactionFilter",
    "PassthroughFilter",
    "MasterPort",
    "SlavePort",
    "apply_filter_chain",
]


class FilterAction(enum.Enum):
    """Outcome of a filter stage."""

    ALLOW = "allow"
    DENY = "deny"


# Looking a member up on an Enum class costs a __getattr__ hook per access.
_ALLOW = FilterAction.ALLOW
_ISSUED = TransactionStatus.ISSUED
_COMPLETED = TransactionStatus.COMPLETED


@dataclass
class FilterResult:
    """What a filter decided about one transaction.

    Attributes
    ----------
    action:
        ALLOW to let the transaction proceed, DENY to discard it.
    latency:
        Cycles this filter stage adds to the transaction.
    stage:
        Name used in the transaction's latency breakdown.
    reason:
        Human-readable reason, mandatory for DENY.
    transformed_data:
        Replacement payload (e.g. ciphertext) or None to keep the original.
    status:
        Terminal status to use on DENY; defaults to the port's blocking status.
    breakdown:
        Optional per-stage split of ``latency`` (e.g. separate Security
        Builder / Confidentiality Core / Integrity Core contributions); when
        present its values must sum to ``latency`` and are used for the
        transaction's latency breakdown instead of ``{stage: latency}``.
    """

    action: FilterAction
    latency: int = 0
    stage: str = "filter"
    reason: str = ""
    transformed_data: Optional[bytes] = None
    status: Optional[TransactionStatus] = None
    breakdown: Optional[Dict[str, int]] = None

    @classmethod
    def allow(
        cls,
        latency: int = 0,
        stage: str = "filter",
        transformed_data: Optional[bytes] = None,
        breakdown: Optional[Dict[str, int]] = None,
    ) -> "FilterResult":
        return cls(
            FilterAction.ALLOW,
            latency=latency,
            stage=stage,
            transformed_data=transformed_data,
            breakdown=breakdown,
        )

    @classmethod
    def deny(
        cls,
        reason: str,
        latency: int = 0,
        stage: str = "filter",
        status: Optional[TransactionStatus] = None,
    ) -> "FilterResult":
        return cls(FilterAction.DENY, latency=latency, stage=stage, reason=reason, status=status)

    @property
    def allowed(self) -> bool:
        return self.action is _ALLOW


class TransactionFilter:
    """Base class / interface for everything interposed on a port.

    Subclasses override :meth:`filter_request` (outbound path: master to bus,
    or bus to slave device) and :meth:`filter_response` (return path).  The
    default implementation allows everything at zero cost, so a subclass only
    needs to override the direction it cares about.
    """

    name = "filter"

    def filter_request(self, txn: BusTransaction) -> FilterResult:
        """Inspect/transform an outbound transaction."""
        return FilterResult.allow(stage=self.name)

    def filter_response(self, txn: BusTransaction) -> FilterResult:
        """Inspect/transform a response travelling back to the master."""
        return FilterResult.allow(stage=self.name)


class PassthroughFilter(TransactionFilter):
    """A do-nothing filter with an optional fixed latency (used in tests and
    as a stand-in for non-security interface logic)."""

    name = "passthrough"

    def __init__(self, latency: int = 0) -> None:
        self.latency = latency

    def filter_request(self, txn: BusTransaction) -> FilterResult:
        return FilterResult.allow(latency=self.latency, stage=self.name)

    def filter_response(self, txn: BusTransaction) -> FilterResult:
        return FilterResult.allow(latency=self.latency, stage=self.name)


def _apply_chain(
    filters: Sequence[TransactionFilter],
    txn: BusTransaction,
    direction: str,
) -> FilterResult:
    """Run a transaction through a filter chain.

    Returns a merged :class:`FilterResult`: the total latency of all stages
    that ran, and the decision of the first denying stage (the chain
    short-circuits, as a hardware firewall would gate the datapath as soon as
    one checking module raises its alert signal).
    """
    total_latency = 0
    request = direction == "request"
    latencies = txn.latency_breakdown
    for filt in filters:
        result = filt.filter_request(txn) if request else filt.filter_response(txn)
        latency = result.latency
        if result.breakdown:
            for stage, cycles in result.breakdown.items():
                latencies[stage] = latencies.get(stage, 0) + cycles
        else:
            stage = result.stage
            latencies[stage] = latencies.get(stage, 0) + latency
        total_latency += latency
        if result.transformed_data is not None:
            txn.data = result.transformed_data
        if result.action is not _ALLOW:
            return FilterResult(
                FilterAction.DENY,
                latency=total_latency,
                stage=result.stage,
                reason=result.reason,
                status=result.status,
            )
    return FilterResult(_ALLOW, total_latency, "chain")


#: Public name for the chain semantics: bus bridges run the same filter chains
#: as ports, so firewalls behave identically at either placement.
apply_filter_chain = _apply_chain


class MasterPort(Component):
    """Gateway between a bus master and the system bus.

    The master calls :meth:`issue`; the port runs its request filters, then
    either hands the transaction to the bus or terminates it locally with
    ``BLOCKED_AT_MASTER``.  Responses coming back from the bus run through the
    response filters before the master's callback fires.
    """

    def __init__(self, sim: Simulator, name: str, filters: Optional[List[TransactionFilter]] = None) -> None:
        super().__init__(sim, name)
        self.filters: List[TransactionFilter] = list(filters or [])
        self.bus = None  # set by BusSegment.connect_master
        self._callbacks: Dict[int, Callable[[BusTransaction], None]] = {}

    # -- wiring -----------------------------------------------------------------

    def attach_filter(self, filt: TransactionFilter) -> None:
        """Append a filter to the chain (closest to the bus last)."""
        self.filters.append(filt)

    def connect_bus(self, bus) -> None:
        self.bus = bus

    # -- outbound path ------------------------------------------------------------

    def issue(self, txn: BusTransaction, callback: Callable[[BusTransaction], None]) -> None:
        """Issue a transaction towards the bus.

        ``callback(txn)`` fires exactly once when the transaction reaches a
        terminal state (completed, blocked or errored).
        """
        if self.bus is None:
            raise RuntimeError(f"master port {self.name} is not connected to a bus")
        sim = self.sim
        txn.issued_at = sim.now
        txn.status = _ISSUED
        stats = self.stats
        stats["issued"] = stats.get("issued", 0) + 1
        self._callbacks[txn.txn_id] = callback
        event_bus = sim.event_bus
        if event_bus is not None:
            # Hot path: counting-only buses take the payload-free lane.
            if event_bus.count_only:
                event_bus.count("txn.issued")
            else:
                event_bus.emit(
                    "txn.issued", sim.now, self.name,
                    master=txn.master, address=txn.address,
                    write=txn.is_write, txn_id=txn.txn_id,
                )

        verdict = _apply_chain(self.filters, txn, "request")
        if verdict.action is not _ALLOW:
            self.bump("blocked_requests")
            status = verdict.status or TransactionStatus.BLOCKED_AT_MASTER
            self.sim.schedule(
                verdict.latency, self._finish_blocked, txn, status, verdict.reason
            )
            return
        sim.schedule(verdict.latency, self.bus.submit, txn, self._on_response)

    def _finish_blocked(self, txn: BusTransaction, status: TransactionStatus, reason: str) -> None:
        txn.mark_blocked(self.sim.now, status, reason)
        self._complete(txn)

    # -- return path ----------------------------------------------------------------

    def _on_response(self, txn: BusTransaction) -> None:
        """Called by the bus when the slave response arrives at this port."""
        if txn.status is not _COMPLETED and txn.status.is_terminal:
            # Bus or slave already terminated it (decode error, slave-side block).
            self._complete(txn)
            return
        verdict = _apply_chain(self.filters, txn, "response")
        if verdict.action is not _ALLOW:
            self.bump("blocked_responses")
            status = verdict.status or TransactionStatus.BLOCKED_AT_MASTER
            self.sim.schedule(
                verdict.latency, self._finish_blocked, txn, status, verdict.reason
            )
            return
        self.sim.schedule(verdict.latency, self._finish_completed, txn)

    def _finish_completed(self, txn: BusTransaction) -> None:
        txn.completed_at = self.sim.now
        txn.status = _COMPLETED
        self._complete(txn)

    def _complete(self, txn: BusTransaction) -> None:
        completed = txn.status is _COMPLETED
        counter = "completed" if completed else "terminated"
        stats = self.stats
        stats[counter] = stats.get(counter, 0) + 1
        event_bus = self.sim.event_bus
        if event_bus is not None:
            kind = "txn.completed" if completed else "txn.blocked"
            if event_bus.count_only:
                event_bus.count(kind)
            else:
                event_bus.emit(
                    kind, self.sim.now, self.name,
                    master=txn.master, address=txn.address, write=txn.is_write,
                    txn_id=txn.txn_id, status=txn.status.value,
                    reason=txn.annotations.get("block_reason", ""),
                )
        callback = self._callbacks.pop(txn.txn_id, None)
        if callback is not None:
            callback(txn)


class SlavePort(Component):
    """Gateway between the system bus and a slave device.

    The bus calls :meth:`deliver`; the port runs its request filters (this is
    where the Local Ciphering Firewall encrypts write data and schedules the
    integrity check), accesses the device, runs the response filters (where
    read data is deciphered and verified) and returns the transaction to the
    bus via the supplied reply function.
    """

    #: Whether the segment may release the bus at request hand-off instead of
    #: holding it until the reply returns.  False for plain device ports;
    #: bridge ingress endpoints override it (posted-write buffering).
    split_transactions = False

    def __init__(
        self,
        sim: Simulator,
        name: str,
        device,
        filters: Optional[List[TransactionFilter]] = None,
    ) -> None:
        super().__init__(sim, name)
        self.device = device
        self.filters: List[TransactionFilter] = list(filters or [])

    def attach_filter(self, filt: TransactionFilter) -> None:
        """Append a filter to the chain (closest to the device last)."""
        self.filters.append(filt)

    def deliver(self, txn: BusTransaction, reply: Callable[[BusTransaction], None]) -> None:
        """Process a transaction arriving from the bus."""
        stats = self.stats
        stats["delivered"] = stats.get("delivered", 0) + 1
        verdict = _apply_chain(self.filters, txn, "request")
        if verdict.action is not _ALLOW:
            self.bump("blocked_requests")
            status = verdict.status or TransactionStatus.BLOCKED_AT_SLAVE
            self.sim.schedule(verdict.latency, self._reply_blocked, txn, reply, status, verdict.reason)
            return
        self.sim.schedule(verdict.latency, self._access_device, txn, reply)

    def _reply_blocked(
        self,
        txn: BusTransaction,
        reply: Callable[[BusTransaction], None],
        status: TransactionStatus,
        reason: str,
    ) -> None:
        txn.mark_blocked(self.sim.now, status, reason)
        reply(txn)

    def _access_device(self, txn: BusTransaction, reply: Callable[[BusTransaction], None]) -> None:
        device = self.device
        latency, data = device.access(txn)
        latencies = txn.latency_breakdown
        latencies[device.name] = latencies.get(device.name, 0) + latency
        if txn.is_read and data is not None:
            txn.data = data
        self.sim.schedule(latency, self._run_response_filters, txn, reply)

    def _run_response_filters(self, txn: BusTransaction, reply: Callable[[BusTransaction], None]) -> None:
        verdict = _apply_chain(self.filters, txn, "response")
        if verdict.action is not _ALLOW:
            self.bump("blocked_responses")
            status = verdict.status or TransactionStatus.BLOCKED_AT_SLAVE
            self.sim.schedule(verdict.latency, self._reply_blocked, txn, reply, status, verdict.reason)
            return
        self.sim.schedule(verdict.latency, reply, txn)
