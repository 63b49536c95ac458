"""Hijacked-IP attacks: unauthorized accesses from inside the chip.

"Processor hijacking: running a malicious source code on a processor to
misbehave the whole embedded system" and "extraction of secret information"
are the first two attacker goals of the threat model.  The scenario is always
the same: an on-chip master (a processor whose code was corrupted through the
unprotected external memory, or an autonomous IP like the DMA engine) starts
issuing accesses its security policy does not authorise.  The paper requires
that such traffic be "stopped in the interface associated with the infected
IP" — i.e. blocked by that IP's own Local Firewall before it reaches the bus.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack, Attempt
from repro.core.secure import SecuredPlatform
from repro.soc.system import SoCSystem
from repro.soc.transaction import Step, TransactionStatus

__all__ = ["SensitiveRegisterProbe", "HijackedIPAttack", "ExfiltrationAttack"]


class SensitiveRegisterProbe(Attack):
    """A hijacked master reads the dedicated IP's sensitive (key) registers.

    Containment is scored where the probe died: at the hijacked master's own
    Local Firewall (``BLOCKED_AT_MASTER``), or, on a bridged fabric, at a
    bridge (``extra["blocked_at_bridge"]``, with the bridges it crossed).
    """

    name = "sensitive_register_probe"
    goal = "read secret material out of the dedicated IP's registers"
    needs = ("ip",)

    def __init__(self, hijacked_master: str = "cpu2", register_index: int = 0,
                 secret_value: int = 0xC0DE_5EC5) -> None:
        self.hijacked_master = hijacked_master
        self.register_index = register_index
        self.secret_value = secret_value & 0xFFFFFFFF

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        # Plant the secret in the sensitive register.
        system.register_ip.write_register(self.register_index, self.secret_value)
        address = system.config.ip_regs_base + 4 * self.register_index
        txn = system.issue(Step(self.hijacked_master, "read", address))

        leaked = (
            txn.status is TransactionStatus.COMPLETED
            and txn.data is not None
            and int.from_bytes(txn.data, "little") == self.secret_value
        )
        return (
            leaked,
            txn.status is TransactionStatus.BLOCKED_AT_MASTER,
            f"probe status {txn.status.value}",
            {
                "probe_status": txn.status.value,
                "blocked_at_bridge": txn.status is TransactionStatus.BLOCKED_AT_BRIDGE,
                "bridges_crossed": [
                    stage for stage in txn.latency_breakdown if stage.startswith("bridge:")
                ],
            },
        )


class HijackedIPAttack(Attack):
    """A hijacked master issues a malformed write into the dedicated IP.

    The write uses a byte-wide access (forbidden by the IP's Allowed Data
    Format) aimed at a control register — the classic "unauthorized format may
    overwrite some protected data in the target IP" case.
    """

    name = "hijacked_ip_write"
    goal = "corrupt the dedicated IP's control registers with a malformed write"
    needs = ("ip",)

    def __init__(self, hijacked_master: str = "cpu1", register_index: int = 4) -> None:
        self.hijacked_master = hijacked_master
        self.register_index = register_index

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        original = system.register_ip.read_register(self.register_index)
        address = system.config.ip_regs_base + 4 * self.register_index
        txn = system.issue(Step(self.hijacked_master, "write", address, width=1, data=b"\xff"))

        corrupted = system.register_ip.read_register(self.register_index) != original
        return (
            corrupted,
            txn.status is TransactionStatus.BLOCKED_AT_MASTER,
            f"write status {txn.status.value}",
            {"write_status": txn.status.value},
        )


class ExfiltrationAttack(Attack):
    """A hijacked DMA engine copies IP secrets out to unprotected external memory.

    The DMA engine is told to copy the dedicated IP's key registers into the
    unprotected window of the DDR, from which an external attacker can read
    them in plaintext.  The DMA's own Local Firewall has no rule authorising
    it to touch the IP register space, so on the protected platform the first
    read of the copy loop must be blocked at the DMA's interface.
    """

    name = "exfiltration"
    goal = "copy secret IP registers to attacker-readable external memory"
    needs = ("ip", "ddr", "dma")

    def __init__(self, secret_registers: int = 4, secret_word: int = 0xFEED_BEEF,
                 destination_offset: Optional[int] = None) -> None:
        self.secret_registers = secret_registers
        self.secret_word = secret_word & 0xFFFFFFFF
        self.destination_offset = destination_offset

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        if system.dma is None:
            raise RuntimeError("platform has no DMA engine to hijack")

        # Plant secrets in the sensitive registers.
        for index in range(self.secret_registers):
            system.register_ip.write_register(index, self.secret_word + index)

        # Destination: deep in the DDR, in the unprotected window.
        if self.destination_offset is None:
            destination_offset = system.config.ddr_size // 2
        else:
            destination_offset = self.destination_offset
        destination = system.config.ddr_base + destination_offset
        length = 4 * self.secret_registers

        system.dma.kickoff(system.config.ip_regs_base, destination, length)
        system.run()

        dumped = system.ddr.peek(destination, length)
        expected = b"".join(
            (self.secret_word + index).to_bytes(4, "little") for index in range(self.secret_registers)
        )
        contained = system.dma.blocked
        return (
            dumped == expected,
            contained,
            "DMA transfer " + ("aborted at its interface" if contained else "ran to completion"),
            {"dma_blocked": system.dma.blocked, "bytes_copied": system.dma.bytes_copied},
        )
