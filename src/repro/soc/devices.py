"""Stateful device models for multi-step attack chains.

The classic attacks in :mod:`repro.attacks` are single transactions: one
rogue read or write either gets through a firewall or it does not.  The
paper's stronger claim — that *distributed* local firewalls contain attacks a
centralized policy would miss — only bites once a device's behaviour depends
on its transaction history, because then an attacker must land an ordered
*sequence* of accesses and every hop is another chance for a firewall to
break the chain.

Three such devices are modelled here, each a :class:`~repro.soc.ip.
RegisterFileIP` subclass so it keeps word-granular register semantics, the
untimed ``read_register`` interface the fingerprint digests rely on, and a
plain :class:`~repro.soc.ports.SlavePort` attachment:

* :class:`FirmwareUpdateIP` — an unlock/arm/stage/commit state machine.
  Staging writes outside the armed window are protocol violations and do
  not land.
* :class:`DmaDescriptorRing` — a descriptor ring with head/tail/doorbell
  registers.  Ringing the doorbell latches the descriptor at ``HEAD``; a
  rewritten descriptor pointing at protected memory is the classic
  "compromise the DMA programming interface" step.
* :class:`SecureBootSequencer` — a monotonic boot-stage counter guarding a
  key bank.  Keys are wiped from the visible registers once provisioned;
  rolling the stage back trips a tamper latch — unless a debug backdoor is
  compiled in (``debug_unlock=True``), which is exactly the planted hole the
  bypass fuzzer must find.

All state transitions are pure functions of the transaction history, so the
devices are deterministic by construction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.soc.ip import RegisterFileIP
from repro.soc.kernel import Simulator
from repro.soc.transaction import BusTransaction

__all__ = [
    "FirmwareUpdateIP",
    "DmaDescriptorRing",
    "SecureBootSequencer",
    "derive_boot_keys",
]


class _StatefulRegisterDevice(RegisterFileIP):
    """Shared write-path plumbing: route each written word through
    :meth:`_handle_write` so subclasses express their protocol per register."""

    def access(self, txn: BusTransaction) -> Tuple[int, Optional[bytes]]:
        if not txn.is_write:
            self._observe_read(txn)
            return super().access(txn)
        assert txn.data is not None
        first = self._register_of_address(txn.address)
        n_words = max(1, (txn.size + 3) // 4)
        for i in range(n_words):
            index = first + i
            if index >= self.n_registers:
                continue
            word = txn.data[4 * i : 4 * i + 4].ljust(4, b"\x00")
            self._handle_write(txn, index, int.from_bytes(word, "little"))
        self.bump("register_writes", n_words)
        return self.access_latency_cycles, None

    def _observe_read(self, txn: BusTransaction) -> None:
        """Hook invoked before a read is served (registers still untouched)."""

    def _handle_write(self, txn: BusTransaction, index: int, value: int) -> None:
        raise NotImplementedError

    def _store(self, index: int, value: int) -> None:
        self._registers[index] = value & 0xFFFFFFFF

    def _violation(self, txn: BusTransaction) -> None:
        self.bump("protocol_violations")
        self.record("last_violation_by", txn.master)


class FirmwareUpdateIP(_StatefulRegisterDevice):
    """Firmware-update state machine: locked -> unlocked -> armed -> commit.

    Register map (word indices)::

        0  CTRL    write UNLOCK/ARM/COMMIT magics to advance the protocol
        1  STATUS  read-only state mirror (| ERROR_FLAG after a violation)
        2+ staging buffer, writable only while armed

    Any out-of-protocol write resets the machine to ``locked`` and raises the
    error flag, so an attacker must land the full ordered sequence — through
    every firewall on the way — to sabotage a firmware image.
    """

    REG_CTRL = 0
    REG_STATUS = 1
    STAGING_BASE = 2

    UNLOCK_MAGIC = 0xF1A5_0001
    ARM_MAGIC = 0xF1A5_0002
    COMMIT_MAGIC = 0xF1A5_0003

    ST_LOCKED = 0
    ST_UNLOCKED = 1
    ST_ARMED = 2
    ERROR_FLAG = 0x100

    def __init__(
        self,
        sim: Simulator,
        name: str,
        base: int,
        n_registers: int = 16,
        access_latency: int = 2,
        sensitive_registers: Optional[List[int]] = None,
    ) -> None:
        if n_registers < self.STAGING_BASE + 1:
            raise ValueError("firmware device needs CTRL, STATUS and staging")
        super().__init__(
            sim, name, base,
            n_registers=n_registers,
            access_latency=access_latency,
            sensitive_registers=sensitive_registers,
        )
        self.state = self.ST_LOCKED
        self.error = False
        self.staged_words = 0
        self.commits = 0
        self._sync_status()

    def _sync_status(self) -> None:
        self._registers[self.REG_STATUS] = self.state | (
            self.ERROR_FLAG if self.error else 0
        )

    def _handle_write(self, txn: BusTransaction, index: int, value: int) -> None:
        if index == self.REG_CTRL:
            self._store(index, value)
            if value == self.UNLOCK_MAGIC and self.state == self.ST_LOCKED:
                self.state = self.ST_UNLOCKED
                self.error = False
            elif value == self.ARM_MAGIC and self.state == self.ST_UNLOCKED:
                self.state = self.ST_ARMED
            elif (
                value == self.COMMIT_MAGIC
                and self.state == self.ST_ARMED
                and self.staged_words > 0
            ):
                self.commits += 1
                self.bump("firmware_commits")
                self.state = self.ST_LOCKED
                self.staged_words = 0
            else:
                self._protocol_error(txn)
        elif index == self.REG_STATUS:
            self._protocol_error(txn)  # read-only
        else:
            if self.state == self.ST_ARMED:
                self._store(index, value)
                self.staged_words += 1
            else:
                self._protocol_error(txn)  # staging outside the armed window
        self._sync_status()

    def _protocol_error(self, txn: BusTransaction) -> None:
        self.state = self.ST_LOCKED
        self.staged_words = 0
        self.error = True
        self._violation(txn)


class DmaDescriptorRing(_StatefulRegisterDevice):
    """DMA programming interface: a descriptor ring behind a doorbell.

    Register map (word indices)::

        0  HEAD      index of the next descriptor to launch
        1  TAIL      producer index (stored modulo ring size)
        2  DOORBELL  any write latches the descriptor at HEAD and goes busy
        3  STATUS    0 = idle, 1 = busy; write 0 to acknowledge completion
        4+ descriptors, 4 words each: src, dst, len, flags

    Descriptor and head/tail writes are rejected while the ring is busy, so
    hijacking a transfer takes an ordered rewrite-then-ring sequence.  Every
    latched descriptor is kept in :attr:`latched` for the attack oracle.
    """

    REG_HEAD = 0
    REG_TAIL = 1
    REG_DOORBELL = 2
    REG_STATUS = 3
    DESC_BASE = 4
    DESC_WORDS = 4

    ST_IDLE = 0
    ST_BUSY = 1

    def __init__(
        self,
        sim: Simulator,
        name: str,
        base: int,
        n_registers: int = 20,
        access_latency: int = 2,
        sensitive_registers: Optional[List[int]] = None,
    ) -> None:
        if n_registers < self.DESC_BASE + self.DESC_WORDS:
            raise ValueError("descriptor ring needs at least one descriptor")
        super().__init__(
            sim, name, base,
            n_registers=n_registers,
            access_latency=access_latency,
            sensitive_registers=sensitive_registers,
        )
        self.latched: List[Tuple[int, int, int, int]] = []

    @property
    def n_descriptors(self) -> int:
        return (self.n_registers - self.DESC_BASE) // self.DESC_WORDS

    @property
    def busy(self) -> bool:
        return self._registers[self.REG_STATUS] == self.ST_BUSY

    def descriptor(self, slot: int) -> Tuple[int, int, int, int]:
        """(src, dst, len, flags) of descriptor ``slot``."""
        start = self.DESC_BASE + self.DESC_WORDS * (slot % self.n_descriptors)
        src, dst, length, flags = self._registers[start : start + 4]
        return src, dst, length, flags

    def _handle_write(self, txn: BusTransaction, index: int, value: int) -> None:
        if index == self.REG_DOORBELL:
            if self.busy:
                self._violation(txn)
                return
            descriptor = self.descriptor(self._registers[self.REG_HEAD])
            if descriptor[2] == 0:  # zero-length descriptor: nothing to launch
                self._violation(txn)
                return
            self.latched.append(descriptor)
            self.bump("descriptors_latched")
            self._store(self.REG_STATUS, self.ST_BUSY)
        elif index == self.REG_STATUS:
            if value == self.ST_IDLE and self.busy:
                self._store(self.REG_STATUS, self.ST_IDLE)
                self.bump("completions_acked")
            else:
                self._violation(txn)
        elif index in (self.REG_HEAD, self.REG_TAIL):
            if self.busy:
                self._violation(txn)
            else:
                self._store(index, value % self.n_descriptors)
        else:  # descriptor words
            if self.busy:
                self._violation(txn)
            else:
                self._store(index, value)


def derive_boot_keys(seed: int, n_keys: int) -> List[int]:
    """Deterministic non-zero 32-bit key words from a seed (splitmix-style)."""
    keys = []
    for i in range(n_keys):
        z = (seed + 0x9E37_79B9 * (i + 1)) & 0xFFFF_FFFF
        z ^= z >> 16
        z = (z * 0x85EB_CA6B) & 0xFFFF_FFFF
        z ^= z >> 13
        z = (z * 0xC2B2_AE35) & 0xFFFF_FFFF
        z ^= z >> 16
        keys.append(z or 1)
    return keys


class SecureBootSequencer(_StatefulRegisterDevice):
    """Monotonic boot-stage counter guarding a device key bank.

    Register map (word indices)::

        0    STAGE   boot stage; forward writes advance, backward writes tamper
        1    TAMPER  read-only tamper latch
        2    DEBUG   scratch; the DEBUG magic arms the backdoor if compiled in
        3    (reserved)
        4+   key bank, ``n_keys`` words, read-only

    The device powers up *provisioned* (stage ``PROVISIONED``) with the real
    keys wiped from the visible registers.  A rollback attempt trips the
    tamper latch and permanently disables key restore.  When the
    ``debug_unlock`` backdoor is compiled in, writing :data:`DEBUG_MAGIC` to
    DEBUG and then rolling STAGE back restores the real keys into the visible
    bank *without tampering* — after which any read of a key register is a
    silent leak, recorded in :attr:`leaks`.
    """

    REG_STAGE = 0
    REG_TAMPER = 1
    REG_DEBUG = 2
    KEY_BASE = 4

    DEBUG_MAGIC = 0xDEB6_0001
    PROVISIONED = 2

    def __init__(
        self,
        sim: Simulator,
        name: str,
        base: int,
        n_registers: int = 8,
        access_latency: int = 2,
        sensitive_registers: Optional[List[int]] = None,
        key_seed: int = 0xB007_0001,
        debug_unlock: bool = False,
    ) -> None:
        if n_registers < self.KEY_BASE + 1:
            raise ValueError("secure boot sequencer needs at least one key word")
        n_keys = n_registers - self.KEY_BASE
        if sensitive_registers is None:
            sensitive_registers = list(range(self.KEY_BASE, n_registers))
        super().__init__(
            sim, name, base,
            n_registers=n_registers,
            access_latency=access_latency,
            sensitive_registers=sensitive_registers,
        )
        self.n_keys = n_keys
        self.debug_unlock = debug_unlock
        self.debug_mode = False
        self.tampered = False
        self._keys = derive_boot_keys(key_seed, n_keys)
        self.leaks: List[Tuple[str, int]] = []
        self._registers[self.REG_STAGE] = self.PROVISIONED  # keys already wiped

    @property
    def stage(self) -> int:
        return self._registers[self.REG_STAGE]

    def _observe_read(self, txn: BusTransaction) -> None:
        first = self._register_of_address(txn.address)
        n_words = max(1, (txn.size + 3) // 4)
        for i in range(n_words):
            index = first + i
            in_bank = self.KEY_BASE <= index < self.KEY_BASE + self.n_keys
            if in_bank and self._registers[index] != 0:
                self.leaks.append((txn.master, index))
                self.bump("boot_key_leaks")

    def _handle_write(self, txn: BusTransaction, index: int, value: int) -> None:
        if index == self.REG_STAGE:
            if value > self.stage:
                self._store(index, value)
                self.bump("stage_advances")
            elif value < self.stage:
                if self.debug_mode and not self.tampered:
                    self._store(index, value)
                    for i, key in enumerate(self._keys):
                        self._registers[self.KEY_BASE + i] = key
                    self.bump("debug_rollbacks")
                else:
                    self._tamper(txn)
        elif index == self.REG_DEBUG:
            self._store(index, value)
            if value == self.DEBUG_MAGIC and self.debug_unlock:
                self.debug_mode = True
                self.bump("debug_unlocks")
        else:  # TAMPER latch and the key bank are read-only
            self._violation(txn)

    def _tamper(self, txn: BusTransaction) -> None:
        self.tampered = True
        self.debug_mode = False
        self._registers[self.REG_TAMPER] = 1
        for i in range(self.n_keys):
            self._registers[self.KEY_BASE + i] = 0
        self.bump("rollback_attempts")
        self._violation(txn)
