"""External-memory tampering attacks: spoofing, replay, relocation.

These are the three attacks the paper's threat model calls out for the
external bus: "an attacker can perform replay, relocation and spoofing
attacks" (section III-B).  All three are modelled as direct manipulation of
the DDR backing store (the attacker sits on the external bus / memory chips,
outside the FPGA), followed by a victim access that would consume the
tampered data:

* **spoofing** -- overwrite a protected location with attacker-chosen bytes,
* **replay** -- restore a previously captured (valid at the time) snapshot of
  a location after the victim has updated it,
* **relocation** -- copy valid protected content from one address to another.

On the protected platform the Local Ciphering Firewall must flag all three
when the victim reads the affected location (integrity failure) — and the
victim must never consume the tampered value.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack, Attempt
from repro.core.secure import SecuredPlatform
from repro.soc.system import SoCSystem
from repro.soc.transaction import BusTransaction, Step, TransactionStatus

__all__ = ["SpoofingAttack", "ReplayAttack", "RelocationAttack"]


def _victim_read_result(read: BusTransaction, accepted: bytes) -> Attempt:
    """Score the victim's final read: the attack wins if it completed and
    returned the bytes the attacker planted."""
    return (
        read.status is TransactionStatus.COMPLETED and read.data == accepted,
        False,
        f"victim read returned status {read.status.value}",
        {"victim_read_status": read.status.value},
    )


class SpoofingAttack(Attack):
    """Overwrite protected external memory with attacker-chosen bytes."""

    name = "spoofing"
    goal = "make the victim consume attacker-chosen data from external memory"
    needs = ("ddr",)

    def __init__(
        self,
        target_offset: int = 0x40,
        payload: bytes = b"EVILCODEEVILCODE",
        victim: str = "cpu0",
    ) -> None:
        if len(payload) % 4 != 0:
            raise ValueError("payload length must be a multiple of 4")
        self.target_offset = target_offset
        self.payload = payload
        self.victim = victim

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        address = system.config.ddr_base + self.target_offset
        words = len(self.payload) // 4

        # The victim legitimately stores data first (so the location is live).
        original = bytes(range(len(self.payload)))
        system.issue(Step(self.victim, "write", address, burst_length=words, data=original))

        # Attacker tampers with the external memory directly.
        system.ddr.poke(address, self.payload)

        # Victim reads the location back.
        read = system.issue(Step(self.victim, "read", address, burst_length=words))
        return _victim_read_result(read, self.payload)


class ReplayAttack(Attack):
    """Restore a stale (previously valid) snapshot of protected memory."""

    name = "replay"
    goal = "make the victim accept stale data that was valid in the past"
    needs = ("ddr",)

    def __init__(self, target_offset: int = 0x80, victim: str = "cpu0", block_size: int = 32) -> None:
        self.target_offset = target_offset
        self.victim = victim
        self.block_size = block_size

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        address = system.config.ddr_base + self.target_offset
        block_base = address - (address % self.block_size)

        old_value = b"OLDBALANCE=0100!"
        new_value = b"NEWBALANCE=0001!"
        words = len(old_value) // 4

        # Victim writes the old value; attacker snapshots the raw external
        # memory (ciphertext on the protected platform, plaintext otherwise).
        system.issue(Step(self.victim, "write", address, burst_length=words, data=old_value))
        snapshot = system.ddr.peek(block_base, self.block_size)

        # Victim updates the value; attacker replays the stale snapshot.
        system.issue(Step(self.victim, "write", address, burst_length=words, data=new_value))
        system.ddr.poke(block_base, snapshot)

        read = system.issue(Step(self.victim, "read", address, burst_length=words))
        return _victim_read_result(read, old_value)


class RelocationAttack(Attack):
    """Copy valid protected content to a different protected address."""

    name = "relocation"
    goal = "make valid data be accepted at a different address than it was written to"
    needs = ("ddr",)

    def __init__(
        self,
        source_offset: int = 0x100,
        destination_offset: int = 0x200,
        victim: str = "cpu0",
        block_size: int = 32,
    ) -> None:
        if source_offset % block_size != 0 or destination_offset % block_size != 0:
            raise ValueError("offsets must be aligned to the protection block size")
        self.source_offset = source_offset
        self.destination_offset = destination_offset
        self.victim = victim
        self.block_size = block_size

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        source = system.config.ddr_base + self.source_offset
        destination = system.config.ddr_base + self.destination_offset
        words = self.block_size // 4

        secret_block = b"JUMP_TO_SECURE_BOOT_VECTOR_0000!"[: self.block_size].ljust(self.block_size, b"!")
        victim_block = b"JUMP_TO_NORMAL_APP_ENTRYPOINT_0!"[: self.block_size].ljust(self.block_size, b"!")

        # Victim writes two distinct blocks.
        system.issue(Step(self.victim, "write", source, burst_length=words, data=secret_block))
        system.issue(Step(self.victim, "write", destination, burst_length=words, data=victim_block))

        # Attacker copies the raw external-memory image of the source block
        # over the destination block (ciphertext relocation).
        raw = system.ddr.peek(source, self.block_size)
        system.ddr.poke(destination, raw)

        read = system.issue(Step(self.victim, "read", destination, burst_length=words))
        return _victim_read_result(read, secret_block)
