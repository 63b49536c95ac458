"""Memory models: on-chip BRAM and external DDR.

The reference platform has "one internal shared memory (BRAM blocks)" and
"one external memory (DDR RAM)" (paper, section V).  Both are modelled as
byte-addressable backing stores with different latency behaviour:

* :class:`BlockRAM` -- single-cycle access, on-chip, trusted,
* :class:`ExternalDDR` -- off-chip, with a simple open-row model (row hits are
  much cheaper than row misses) and a visible backing store that the attack
  framework can tamper with directly, modelling an attacker probing the
  external bus / memory chips (the only attack surface in the threat model).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.soc.kernel import Component, Simulator
from repro.soc.transaction import BusTransaction

__all__ = ["MemoryDevice", "BlockRAM", "ExternalDDR"]


class MemoryDevice(Component):
    """Common byte-addressable memory behaviour.

    Subclasses only customise the latency of an access via
    :meth:`access_latency`.
    """

    def __init__(self, sim: Simulator, name: str, base: int, size: int, fill: int = 0) -> None:
        super().__init__(sim, name)
        if size <= 0:
            raise ValueError("memory size must be positive")
        if not 0 <= fill <= 0xFF:
            raise ValueError("fill byte out of range")
        self.base = base
        self.size = size
        self._data = bytearray([fill]) * size if fill else bytearray(size)

    # -- raw backing-store access (no timing, used for initialisation,
    #    checking results and attacker tampering) --------------------------------

    def _offset(self, address: int, size: int) -> int:
        offset = address - self.base
        if offset < 0 or offset + size > self.size:
            raise ValueError(
                f"address range [{address:#x}, {address + size:#x}) outside "
                f"{self.name} [{self.base:#x}, {self.base + self.size:#x})"
            )
        return offset

    def peek(self, address: int, size: int) -> bytes:
        """Read the backing store directly (no simulated time)."""
        offset = self._offset(address, size)
        return bytes(self._data[offset : offset + size])

    def poke(self, address: int, data: bytes) -> None:
        """Write the backing store directly (no simulated time)."""
        offset = self._offset(address, len(data))
        self._data[offset : offset + len(data)] = data

    # -- timed access (called by the slave port) ------------------------------------

    def access_latency(self, txn: BusTransaction) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def access(self, txn: BusTransaction) -> Tuple[int, Optional[bytes]]:
        """Perform the access; returns (latency_cycles, read_data_or_None)."""
        latency = self.access_latency(txn)
        if txn.is_write:
            assert txn.data is not None
            self.poke(txn.address, txn.data)
            self.bump("writes")
            self.bump("bytes_written", txn.size)
            return latency, None
        data = self.peek(txn.address, txn.size)
        self.bump("reads")
        self.bump("bytes_read", txn.size)
        return latency, data


class BlockRAM(MemoryDevice):
    """On-chip BRAM: fixed, short access latency."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        base: int,
        size: int,
        read_latency: int = 1,
        write_latency: int = 1,
    ) -> None:
        super().__init__(sim, name, base, size)
        self.read_latency = read_latency
        self.write_latency = write_latency

    def access_latency(self, txn: BusTransaction) -> int:
        base = self.read_latency if txn.is_read else self.write_latency
        # One extra cycle per additional beat of a burst.
        return base + max(0, txn.burst_length - 1)


class ExternalDDR(MemoryDevice):
    """External DDR with a single open-row model.

    The controller keeps one row open per bank; an access to the open row is a
    *row hit* (CAS latency only), otherwise a *row miss* pays precharge +
    activate + CAS.  This is intentionally simple — the experiments only need
    external accesses to be markedly more expensive than BRAM accesses, and
    the hit/miss split gives the workload sweeps realistic variance.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        base: int,
        size: int,
        row_size: int = 1024,
        n_banks: int = 4,
        row_hit_latency: int = 10,
        row_miss_latency: int = 30,
        cycles_per_beat: int = 1,
    ) -> None:
        super().__init__(sim, name, base, size)
        if row_size <= 0 or n_banks <= 0:
            raise ValueError("row_size and n_banks must be positive")
        self.row_size = row_size
        self.n_banks = n_banks
        self.row_hit_latency = row_hit_latency
        self.row_miss_latency = row_miss_latency
        self.cycles_per_beat = cycles_per_beat
        self._open_rows: Dict[int, int] = {}

    def _bank_and_row(self, address: int) -> Tuple[int, int]:
        offset = address - self.base
        row = offset // self.row_size
        bank = row % self.n_banks
        return bank, row

    def access_latency(self, txn: BusTransaction) -> int:
        bank, row = self._bank_and_row(txn.address)
        if self._open_rows.get(bank) == row:
            latency = self.row_hit_latency
            self.bump("row_hits")
        else:
            latency = self.row_miss_latency
            self._open_rows[bank] = row
            self.bump("row_misses")
        return latency + self.cycles_per_beat * max(0, txn.burst_length - 1)
