"""Bus transactions.

A :class:`BusTransaction` is the unit of communication in the platform: one
read or write request issued by a bus master (processor, DMA engine, hijacked
IP, external attacker model) towards a slave (BRAM, DDR, register-file IP).

The transaction carries everything the firewalls need to evaluate a security
policy: the issuing master, the operation, the target address, the access
width (the paper's "Allowed Data Format" check), the burst length and the data
payload.  It also accumulates a timing trace (issue, grant, completion cycle
and per-stage latency contributions) that the metrics layer turns into the
latency/overhead numbers of Table II and the communication-ratio ablation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["BusOperation", "TransactionStatus", "BusTransaction"]

_txn_ids = itertools.count()


class BusOperation(enum.Enum):
    """Kind of bus access."""

    READ = "read"
    WRITE = "write"


class TransactionStatus(enum.Enum):
    """Lifecycle of a transaction.

    ``BLOCKED_AT_MASTER`` and ``BLOCKED_AT_SLAVE`` distinguish where a firewall
    stopped the access: the paper requires that an attack launched by an
    infected IP "must not reach the communication architecture but be stopped
    in the interface associated with the infected IP", which corresponds to
    ``BLOCKED_AT_MASTER``.  ``BLOCKED_AT_BRIDGE`` marks traffic stopped by a
    bridge-placed firewall while crossing between fabric segments — the
    centralized-enforcement analogue inside a hierarchical topology.
    """

    CREATED = "created"
    ISSUED = "issued"
    GRANTED = "granted"
    COMPLETED = "completed"
    BLOCKED_AT_MASTER = "blocked_at_master"
    BLOCKED_AT_SLAVE = "blocked_at_slave"
    BLOCKED_AT_BRIDGE = "blocked_at_bridge"
    DECODE_ERROR = "decode_error"
    INTEGRITY_ERROR = "integrity_error"

    @property
    def is_blocked(self) -> bool:
        return self in (
            TransactionStatus.BLOCKED_AT_MASTER,
            TransactionStatus.BLOCKED_AT_SLAVE,
            TransactionStatus.BLOCKED_AT_BRIDGE,
            TransactionStatus.INTEGRITY_ERROR,
        )

    @property
    def is_terminal(self) -> bool:
        return self is not TransactionStatus.CREATED and self is not TransactionStatus.ISSUED and self is not TransactionStatus.GRANTED


@dataclass
class BusTransaction:
    """A single bus read or write.

    Parameters
    ----------
    master:
        Name of the issuing bus master.
    operation:
        :class:`BusOperation.READ` or :class:`BusOperation.WRITE`.
    address:
        Byte address of the first beat.
    width:
        Access width in bytes per beat (1, 2 or 4 on the 32-bit bus).
    burst_length:
        Number of beats; total payload is ``width * burst_length`` bytes.
    data:
        Payload for writes; filled in on completion for reads.
    """

    master: str
    operation: BusOperation
    address: int
    width: int = 4
    burst_length: int = 1
    data: Optional[bytes] = None
    txn_id: int = field(default_factory=lambda: next(_txn_ids))
    status: TransactionStatus = TransactionStatus.CREATED

    # Timing trace (cycle numbers, -1 = not reached).
    issued_at: int = -1
    granted_at: int = -1
    completed_at: int = -1

    # Per-stage latency contributions, e.g. {"security_builder": 12, "bus": 3}.
    latency_breakdown: Dict[str, int] = field(default_factory=dict)

    # Free-form annotations added by filters (alerts, policy id used, ...).
    annotations: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address:#x}")
        if self.width not in (1, 2, 4):
            raise ValueError(f"width must be 1, 2 or 4 bytes, got {self.width}")
        if self.burst_length < 1:
            raise ValueError(f"burst_length must be >= 1, got {self.burst_length}")
        if self.is_write:
            if self.data is None:
                raise ValueError("write transaction requires data")
            if len(self.data) != self.size:
                raise ValueError(
                    f"write data length {len(self.data)} does not match "
                    f"width*burst_length = {self.size}"
                )

    # -- derived properties -----------------------------------------------------

    @property
    def size(self) -> int:
        """Total payload size in bytes."""
        return self.width * self.burst_length

    @property
    def end_address(self) -> int:
        """One past the last byte touched by this transaction."""
        return self.address + self.size

    @property
    def is_read(self) -> bool:
        return self.operation is BusOperation.READ

    @property
    def is_write(self) -> bool:
        return self.operation is BusOperation.WRITE

    @property
    def total_latency(self) -> int:
        """Cycles from issue to completion (or -1 if not completed)."""
        if self.completed_at < 0 or self.issued_at < 0:
            return -1
        return self.completed_at - self.issued_at

    @property
    def security_latency(self) -> int:
        """Cycles added by security modules (sum of firewall stages)."""
        return sum(
            cycles
            for stage, cycles in self.latency_breakdown.items()
            if stage.startswith("firewall") or stage in (
                "security_builder",
                "confidentiality_core",
                "integrity_core",
            )
        )

    # -- lifecycle helpers --------------------------------------------------------

    def mark_issued(self, cycle: int) -> None:
        self.issued_at = cycle
        self.status = TransactionStatus.ISSUED

    def mark_granted(self, cycle: int) -> None:
        self.granted_at = cycle
        self.status = TransactionStatus.GRANTED

    def mark_completed(self, cycle: int, data: Optional[bytes] = None) -> None:
        self.completed_at = cycle
        self.status = TransactionStatus.COMPLETED
        if data is not None:
            self.data = data

    def mark_blocked(self, cycle: int, status: TransactionStatus, reason: str) -> None:
        if not status.is_blocked and status is not TransactionStatus.DECODE_ERROR:
            raise ValueError(f"{status} is not a blocking status")
        self.completed_at = cycle
        self.status = status
        self.annotations.setdefault("block_reason", reason)

    def add_latency(self, stage: str, cycles: int) -> None:
        """Accumulate ``cycles`` against a named pipeline stage."""
        if cycles < 0:
            raise ValueError("latency contribution cannot be negative")
        self.latency_breakdown[stage] = self.latency_breakdown.get(stage, 0) + cycles

    def clone_for_retry(self) -> "BusTransaction":
        """Fresh copy of this transaction with a new id and clean lifecycle."""
        return BusTransaction(
            master=self.master,
            operation=self.operation,
            address=self.address,
            width=self.width,
            burst_length=self.burst_length,
            data=self.data if self.is_write else None,
        )

    def describe(self) -> str:
        """One-line human-readable summary (used in reports and alert logs)."""
        return (
            f"txn#{self.txn_id} {self.master} {self.operation.value.upper()} "
            f"@{self.address:#010x} width={self.width} burst={self.burst_length} "
            f"status={self.status.value}"
        )
