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

A :class:`Step` is the same access as plain, immutable data: which master
issues what.  Attacks, attack chains, fuzz cases and the verifier's witnesses
are all step sequences, and :meth:`repro.soc.system.SoCSystem.issue` is the
one place a step becomes a transaction on the bus.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = ["BusOperation", "TransactionStatus", "BusTransaction", "Step"]

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


_OPS = ("read", "write")
_WIDTHS = (1, 2, 4)
#: Every field :meth:`Step.to_dict` writes, except the optional ``data`` and ``label``.
_STEP_FIELDS = ("master", "op", "address", "width", "burst_length")


def check_fields(
    payload: object, what: str, required: Tuple[str, ...], optional: Tuple[str, ...] = ()
) -> None:
    """Refuse a payload that is not a JSON object of exactly these fields."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {unknown}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"{what} is missing field(s) {missing}")


def typed_field(payload: Dict[str, Any], key: str, kind: type, what: str) -> Any:
    """``payload[key]``, which must be exactly of ``kind`` (so neither a bool
    nor a float nor a numeric string passes for an int)."""
    value = payload[key]
    if type(value) is not kind:
        raise ValueError(f"{what} field {key!r} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class Step:
    """One access a master issues, as data: ``master`` reads or writes
    ``width * burst_length`` bytes at ``address``.

    ``label`` names the step in an attack chain's per-step records; an empty
    label is left out of :meth:`to_dict`, so an unlabelled step serialises
    as a fuzz-corpus step always has.
    """

    master: str
    op: str  # "read" | "write"
    address: int
    width: int = 4
    burst_length: int = 1
    data: Optional[bytes] = None  # writes only
    label: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"step op must be one of {_OPS}, got {self.op!r}")
        if self.address < 0:
            raise ValueError(f"step address must be non-negative, got {self.address!r}")
        if self.width not in _WIDTHS:
            raise ValueError(f"step width must be one of {_WIDTHS}, got {self.width!r}")
        if self.burst_length < 1:
            raise ValueError(f"step burst_length must be at least 1, got {self.burst_length!r}")
        if self.op == "read":
            if self.data is not None:
                raise ValueError("step data is for writes only; a read carries none")
        elif self.data is None:
            raise ValueError("step data is required on a write")
        elif len(self.data) != self.width * self.burst_length:
            raise ValueError(
                f"step data must be width x burst_length = {self.width * self.burst_length} "
                f"bytes, got {len(self.data)}"
            )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "master": self.master,
            "op": self.op,
            "address": self.address,
            "width": self.width,
            "burst_length": self.burst_length,
        }
        if self.data is not None:
            payload["data"] = self.data.hex()
        if self.label:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Step":
        """The step :meth:`to_dict` wrote; any other payload raises."""
        check_fields(payload, "step", _STEP_FIELDS, ("data", "label"))
        data = None
        if "data" in payload:
            raw = typed_field(payload, "data", str, "step")
            try:
                data = bytes.fromhex(raw)
            except ValueError:
                raise ValueError(f"step field 'data' must be hex, got {raw!r}") from None
        return cls(
            master=typed_field(payload, "master", str, "step"),
            op=typed_field(payload, "op", str, "step"),
            address=typed_field(payload, "address", int, "step"),
            width=typed_field(payload, "width", int, "step"),
            burst_length=typed_field(payload, "burst_length", int, "step"),
            data=data,
            label=typed_field(payload, "label", str, "step") if "label" in payload else "",
        )
