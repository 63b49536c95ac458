"""Multi-step attack chains against the stateful protocol devices.

The classic attacks are one transaction each; the chains here model the
threat the paper's distributed placement is really about: an attacker who
must land an *ordered sequence* of accesses — unlock then arm then stage
then commit, or rewrite a descriptor then ring the doorbell then exfiltrate
— where every transaction crosses its own set of firewalls.  A centralized
checkpoint sees each access in isolation; the distributed layout gets a
fresh chance to break the chain at every hop, and per-step attribution
(which step was blocked, by which interface) is exactly the containment
evidence the campaign reports need.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.attacks.base import Attack, Attempt
from repro.core.secure import SecuredPlatform
from repro.soc.devices import DmaDescriptorRing, FirmwareUpdateIP, SecureBootSequencer
from repro.soc.system import SoCSystem
from repro.soc.transaction import Step, TransactionStatus

__all__ = [
    "AttackChain",
    "FirmwareSabotageChain",
    "DescriptorHijackChain",
    "BootRollbackChain",
]


def word_step(label: str, master: str, address: int, value: int) -> Step:
    """A single-word write step (the common protocol-register case)."""
    return Step(
        master, "write", address,
        data=(value & 0xFFFFFFFF).to_bytes(4, "little"), label=label,
    )


class AttackChain(Attack):
    """Base class: run an ordered step list with per-step attribution.

    Subclasses implement :meth:`plan` (the step list against a concrete
    platform) and :meth:`achieved` (whether the attacker goal landed).  The
    chain stops at the first blocked step — once a firewall kills one link
    the remaining protocol steps cannot succeed by construction, and the
    per-step records show exactly which interface broke the chain.
    """

    def plan(self, system: SoCSystem) -> List[Step]:  # pragma: no cover - interface
        raise NotImplementedError

    def achieved(
        self, system: SoCSystem, records: List[Dict[str, object]]
    ) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def prepare(self, system: SoCSystem) -> None:
        """Hook: snapshot device state before the first step runs."""

    def attempt(self, system: SoCSystem, security: Optional[SecuredPlatform]) -> Attempt:
        self.prepare(system)
        steps = self.plan(system)
        alerts = security.monitor.alerts if security is not None else []
        records: List[Dict[str, object]] = []
        first_blocked: Optional[int] = None
        for index, step in enumerate(steps):
            before = len(alerts)
            txn = system.issue(step)
            raised = alerts[before:]
            records.append({
                "step": index,
                "label": step.label,
                "master": step.master,
                "op": step.op,
                "address": step.address,
                "status": txn.status.value,
                "block_reason": txn.annotations.get("block_reason"),
                "alerts": len(raised),
                "detection_cycle": min((alert.cycle for alert in raised), default=None),
            })
            if txn.status.is_blocked:
                first_blocked = index
                break

        contained = bool(records) and records[-1]["status"] == (
            TransactionStatus.BLOCKED_AT_MASTER.value
        )
        blocked_detail = (
            f"chain broken at step {first_blocked} "
            f"({records[first_blocked]['label']}, {records[first_blocked]['status']})"
            if first_blocked is not None
            else f"all {len(steps)} steps completed"
        )
        return (
            self.achieved(system, records),
            contained,
            blocked_detail,
            {
                "chain_steps": records,
                "chain": {
                    "steps_planned": len(steps),
                    "steps_run": len(records),
                    "first_blocked_step": first_blocked,
                },
            },
        )


class FirmwareSabotageChain(AttackChain):
    """Hijacked CPU walks the firmware-update protocol to commit a rogue image.

    unlock -> arm -> stage payload -> commit: four writes that must *all*
    pass the hijacked master's firewalls for the sabotage to land.
    """

    name = "firmware_update_chain"
    goal = "commit attacker-controlled firmware through the update state machine"

    def __init__(
        self,
        hijacked_master: str = "cpu1",
        device: str = "fw0",
        payload: int = 0xBAD_F1A5,
    ) -> None:
        self.hijacked_master = hijacked_master
        self.device = device
        self.payload = payload & 0xFFFFFFFF
        self._commits_before = 0

    def _device(self, system: SoCSystem) -> FirmwareUpdateIP:
        try:
            return system.ips[self.device]
        except KeyError:
            raise ValueError(
                f"no IP named {self.device!r}; known: {sorted(system.ips)}"
            ) from None

    def prepare(self, system: SoCSystem) -> None:
        self._commits_before = self._device(system).commits

    def plan(self, system: SoCSystem) -> List[Step]:
        device = self._device(system)
        ctrl = device.base + 4 * FirmwareUpdateIP.REG_CTRL
        staging = device.base + 4 * FirmwareUpdateIP.STAGING_BASE
        master = self.hijacked_master
        return [
            word_step("unlock", master, ctrl, FirmwareUpdateIP.UNLOCK_MAGIC),
            word_step("arm", master, ctrl, FirmwareUpdateIP.ARM_MAGIC),
            word_step("stage_payload", master, staging, self.payload),
            word_step("commit", master, ctrl, FirmwareUpdateIP.COMMIT_MAGIC),
        ]

    def achieved(self, system: SoCSystem, records: List[Dict[str, object]]) -> bool:
        return self._device(system).commits > self._commits_before


class DescriptorHijackChain(AttackChain):
    """Compromised master reprograms the DMA ring to exfiltrate protected memory.

    Rewrite the descriptor at HEAD so its destination points into protected
    memory, ring the doorbell to latch it, then perform the programmed read
    — the cross-segment exfiltration step the descriptor authorised.
    """

    name = "descriptor_hijack_chain"
    goal = "latch a rewritten DMA descriptor targeting protected memory and read it out"

    def __init__(
        self,
        hijacked_master: str = "cpu1",
        ring: str = "ring0",
        target_address: int = 0x0,
        length: int = 16,
    ) -> None:
        self.hijacked_master = hijacked_master
        self.ring = ring
        self.target_address = target_address
        self.length = length
        self._latched_before = 0

    def _ring(self, system: SoCSystem) -> DmaDescriptorRing:
        try:
            return system.ips[self.ring]
        except KeyError:
            raise ValueError(
                f"no IP named {self.ring!r}; known: {sorted(system.ips)}"
            ) from None

    def prepare(self, system: SoCSystem) -> None:
        self._latched_before = len(self._ring(system).latched)

    def plan(self, system: SoCSystem) -> List[Step]:
        ring = self._ring(system)
        master = self.hijacked_master
        desc = ring.base + 4 * DmaDescriptorRing.DESC_BASE
        # The ring's firewall policy is single-beat word-only (`ip_registers`),
        # so the descriptor rewrite is four word writes: src, dst, len, flags.
        return [
            word_step("rewrite_desc_src", master, desc + 0, self.target_address),
            word_step("rewrite_desc_dst", master, desc + 4, self.target_address),
            word_step("rewrite_desc_len", master, desc + 8, self.length),
            word_step("rewrite_desc_flags", master, desc + 12, 1),
            word_step("select_head", master, ring.base + 4 * DmaDescriptorRing.REG_HEAD, 0),
            word_step("ring_doorbell", master, ring.base + 4 * DmaDescriptorRing.REG_DOORBELL, 1),
            Step(master, "read", self.target_address,
                 burst_length=max(1, self.length // 4), label="exfiltrate"),
        ]

    def achieved(self, system: SoCSystem, records: List[Dict[str, object]]) -> bool:
        ring = self._ring(system)
        new = ring.latched[self._latched_before:]
        latched = any(dst == self.target_address for (_src, dst, _len, _flags) in new)
        exfiltrated = any(
            r["label"] == "exfiltrate" and r["status"] == TransactionStatus.COMPLETED.value
            for r in records
        )
        return latched and exfiltrated


class BootRollbackChain(AttackChain):
    """Debug-unlock the secure-boot sequencer, roll the stage back, read keys.

    Against a correctly provisioned device (``debug_unlock=False``) the
    rollback write trips the tamper latch and the key read returns zeros; the
    chain only wins when the debug backdoor is compiled in *and* every step
    gets past the firewalls silently — the planted hole the bypass fuzzer
    hunts for.
    """

    name = "boot_rollback_chain"
    goal = "roll back the boot stage and read restored key material"

    def __init__(self, hijacked_master: str = "cpu1", device: str = "boot0") -> None:
        self.hijacked_master = hijacked_master
        self.device = device
        self._leaks_before = 0

    def _device(self, system: SoCSystem) -> SecureBootSequencer:
        try:
            return system.ips[self.device]
        except KeyError:
            raise ValueError(
                f"no IP named {self.device!r}; known: {sorted(system.ips)}"
            ) from None

    def prepare(self, system: SoCSystem) -> None:
        self._leaks_before = len(self._device(system).leaks)

    def plan(self, system: SoCSystem) -> List[Step]:
        device = self._device(system)
        master = self.hijacked_master
        return [
            word_step("debug_unlock", master,
                      device.base + 4 * SecureBootSequencer.REG_DEBUG,
                      SecureBootSequencer.DEBUG_MAGIC),
            word_step("rollback_stage", master,
                      device.base + 4 * SecureBootSequencer.REG_STAGE, 0),
            Step(master, "read", device.base + 4 * SecureBootSequencer.KEY_BASE,
                 label="read_keys"),
        ]

    def achieved(self, system: SoCSystem, records: List[Dict[str, object]]) -> bool:
        return len(self._device(system).leaks) > self._leaks_before
