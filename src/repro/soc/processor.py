"""Programmable bus masters (MicroBlaze-like processor models).

The security decisions of the paper all happen at the bus interface, so the
processor model does not interpret a real instruction set.  Instead it
executes a *program* of abstract operations:

* ``compute(cycles)`` -- keep the core busy without touching the bus,
* ``read(address, width, burst)`` -- issue a load,
* ``write(address, data, width)`` -- issue a store.

This is exactly the level the paper reasons at: "the impact of the protection
mechanisms on the global execution time depends on the percentage of
computation time versus communication time" and on "the percentage of internal
communication versus external communication" (section V).  The workload
generators in :mod:`repro.workloads` produce programs with controlled values
of those two ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.soc.kernel import Component, Simulator
from repro.soc.ports import MasterPort
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus

__all__ = ["OperationKind", "MemoryOperation", "ProcessorProgram", "Processor"]


class OperationKind(enum.Enum):
    """Kind of abstract processor operation."""

    COMPUTE = "compute"
    READ = "read"
    WRITE = "write"


@dataclass
class MemoryOperation:
    """One step of a processor program.

    ``thread_id`` optionally identifies the software thread issuing the
    operation; it is propagated as a transaction annotation so thread-aware
    firewalls (:mod:`repro.core.thread_policy`) can apply per-thread
    clearance levels.
    """

    kind: OperationKind
    address: int = 0
    width: int = 4
    burst_length: int = 1
    data: Optional[bytes] = None
    compute_cycles: int = 0
    thread_id: Optional[int] = None

    @classmethod
    def compute(cls, cycles: int) -> "MemoryOperation":
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        return cls(kind=OperationKind.COMPUTE, compute_cycles=cycles)

    @classmethod
    def read(
        cls,
        address: int,
        width: int = 4,
        burst_length: int = 1,
        thread_id: Optional[int] = None,
    ) -> "MemoryOperation":
        return cls(kind=OperationKind.READ, address=address, width=width,
                   burst_length=burst_length, thread_id=thread_id)

    @classmethod
    def write(
        cls,
        address: int,
        data: bytes,
        width: int = 4,
        burst_length: Optional[int] = None,
        thread_id: Optional[int] = None,
    ) -> "MemoryOperation":
        if burst_length is None:
            if len(data) % width != 0:
                raise ValueError("write data length must be a multiple of width")
            burst_length = max(1, len(data) // width)
        return cls(
            kind=OperationKind.WRITE,
            address=address,
            width=width,
            burst_length=burst_length,
            data=data,
            thread_id=thread_id,
        )

    @property
    def is_memory_access(self) -> bool:
        return self.kind is not OperationKind.COMPUTE


# Looking a member up on an Enum class costs a __getattr__ hook per access.
_COMPUTE = OperationKind.COMPUTE
_READ = OperationKind.READ
_BUS_READ = BusOperation.READ
_BUS_WRITE = BusOperation.WRITE
_COMPLETED = TransactionStatus.COMPLETED


@dataclass
class ProcessorProgram:
    """An ordered list of operations plus bookkeeping helpers."""

    operations: List[MemoryOperation] = field(default_factory=list)
    name: str = "program"

    def append(self, op: MemoryOperation) -> "ProcessorProgram":
        self.operations.append(op)
        return self

    def extend(self, ops: List[MemoryOperation]) -> "ProcessorProgram":
        self.operations.extend(ops)
        return self

    def __len__(self) -> int:
        return len(self.operations)


class Processor(Component):
    """A bus master that executes a :class:`ProcessorProgram` sequentially.

    The core blocks on each memory access (in-order, single outstanding
    transaction — the MicroBlaze configuration of the paper's platform), so
    every cycle of firewall latency shows up directly in the program's
    execution time.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: MasterPort,
        program: Optional[ProcessorProgram] = None,
        on_finished: Optional[Callable[["Processor"], None]] = None,
    ) -> None:
        super().__init__(sim, name)
        self.port = port
        self.program = program or ProcessorProgram()
        self.on_finished = on_finished
        self._pc = 0
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self.transactions: List[BusTransaction] = []
        self.blocked_transactions: List[BusTransaction] = []

    # -- control -----------------------------------------------------------------

    def load_program(self, program: ProcessorProgram) -> None:
        """Replace the program (only before :meth:`start`)."""
        if self.started_at is not None:
            raise RuntimeError(f"{self.name} already started")
        self.program = program

    def start(self, delay: int = 0) -> None:
        """Schedule the first operation ``delay`` cycles from now."""
        if self.started_at is not None:
            raise RuntimeError(f"{self.name} already started")
        self.started_at = self.sim.now + delay
        self.sim.schedule(delay, self._execute_next)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def execution_cycles(self) -> Optional[int]:
        """Total cycles from start to completion of the program."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    # -- execution engine -----------------------------------------------------------

    def _execute_next(self) -> None:
        operations = self.program.operations
        pc = self._pc
        if pc >= len(operations):
            self._finish()
            return
        op = operations[pc]
        self._pc = pc + 1
        kind = op.kind
        stats = self.stats

        if kind is _COMPUTE:
            stats["compute_ops"] = stats.get("compute_ops", 0) + 1
            stats["compute_cycles"] = stats.get("compute_cycles", 0) + op.compute_cycles
            self.sim.schedule(op.compute_cycles, self._execute_next)
            return

        operation = _BUS_READ if kind is _READ else _BUS_WRITE
        txn = BusTransaction(
            master=self.name,
            operation=operation,
            address=op.address,
            width=op.width,
            burst_length=op.burst_length,
            data=op.data if operation is _BUS_WRITE else None,
        )
        if op.thread_id is not None:
            # Key kept as a literal so the substrate stays independent of the
            # security layer; repro.core.thread_policy.THREAD_ID_ANNOTATION
            # uses the same string.
            txn.annotations["thread_id"] = op.thread_id
        stats["memory_ops"] = stats.get("memory_ops", 0) + 1
        self.transactions.append(txn)
        self.port.issue(txn, self._on_transaction_done)

    def _on_transaction_done(self, txn: BusTransaction) -> None:
        stats = self.stats
        if txn.status is _COMPLETED:
            stats["completed_accesses"] = stats.get("completed_accesses", 0) + 1
        else:
            stats["blocked_accesses"] = stats.get("blocked_accesses", 0) + 1
            self.blocked_transactions.append(txn)
        stats["access_cycles"] = stats.get("access_cycles", 0) + max(0, txn.total_latency)
        self._execute_next()

    def _finish(self) -> None:
        if self.finished_at is None:
            self.finished_at = self.sim.now
            self.record("finished_at", self.finished_at)
            if self.started_at is not None:
                self.record("execution_cycles", self.finished_at - self.started_at)
            if self.on_finished is not None:
                self.on_finished(self)

    # -- analysis helpers ---------------------------------------------------------------

    def communication_cycles(self) -> int:
        """Cycles spent waiting on memory accesses."""
        return self.stats.get("access_cycles", 0)

    def computation_cycles(self) -> int:
        """Cycles spent in compute operations."""
        return self.stats.get("compute_cycles", 0)

    def security_cycles(self) -> int:
        """Cycles attributable to security modules across all transactions."""
        return sum(t.security_latency for t in self.transactions)
