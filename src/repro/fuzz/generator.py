"""Seeded transaction-sequence generation and mutation.

The search space is steered, not uniform: raw random addresses almost never
spell ``unlock -> arm -> commit``, so the generator pre-computes *protocol
templates* from the scenario's own topology — the magic control writes,
doorbell rings, stage rollbacks and sensitive-register reads each stateful
device kind responds to — and mixes them with boundary accesses and plain
random traffic.  Mutation works on the same vocabulary (insert/delete/
replace/swap/retarget), so a case that almost completes a protocol is one
mutation away from completing it.

Determinism: the only randomness is ``random.Random(seed)``; templates and
address pools are built in spec declaration order.  Same seed, same call
sequence, same cases — that is what makes ``repro fuzz --seed S``
bit-reproducible.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.fuzz.case import FuzzCase
from repro.scenarios.spec import ScenarioSpec, SlaveSpec
from repro.soc.devices import (
    DmaDescriptorRing,
    FirmwareUpdateIP,
    SecureBootSequencer,
)
from repro.soc.transaction import Step

__all__ = ["SequenceGenerator"]

#: Data words the mutation engine likes to write (protocol magics first —
#: they are the keys that open the stateful devices).
_MAGIC_WORDS = (
    FirmwareUpdateIP.UNLOCK_MAGIC,
    FirmwareUpdateIP.ARM_MAGIC,
    FirmwareUpdateIP.COMMIT_MAGIC,
    SecureBootSequencer.DEBUG_MAGIC,
    0x0000_0000,
    0x0000_0001,
    0xFFFF_FFFF,
    0xDEAD_BEEF,
)


def _word(value: int) -> bytes:
    return (value & 0xFFFF_FFFF).to_bytes(4, "little")


class SequenceGenerator:
    """Template-steered generator/mutator over one scenario's topology."""

    def __init__(self, spec: ScenarioSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.masters: List[str] = [m.name for m in spec.topology.masters]
        self.slaves: List[SlaveSpec] = list(spec.topology.slaves)
        #: Interesting transfer targets: every slave's base and midpoint.
        self.target_addresses: List[int] = []
        for slave in self.slaves:
            self.target_addresses.append(slave.base)
            if slave.size >= 8:
                self.target_addresses.append(slave.base + (slave.size // 8) * 4)
        self.templates: List[Step] = self._build_templates()

    # -- template vocabulary ---------------------------------------------------------

    def _build_templates(self) -> List[Step]:
        """Protocol-aware steps, master left as a placeholder (``""``)."""
        steps: List[Step] = []

        def write(address: int, value: int) -> None:
            steps.append(Step("", "write", address, data=_word(value)))

        def read(address: int) -> None:
            steps.append(Step("", "read", address))

        for slave in self.slaves:
            base = slave.base
            if slave.kind == "firmware":
                ctrl = base + 4 * FirmwareUpdateIP.REG_CTRL
                write(ctrl, FirmwareUpdateIP.UNLOCK_MAGIC)
                write(ctrl, FirmwareUpdateIP.ARM_MAGIC)
                write(ctrl, FirmwareUpdateIP.COMMIT_MAGIC)
                write(base + 4 * FirmwareUpdateIP.STAGING_BASE, 0xBAD_F1A5)
                read(base + 4 * FirmwareUpdateIP.REG_STATUS)
            elif slave.kind == "dma_ring":
                desc = base + 4 * DmaDescriptorRing.DESC_BASE
                for target in self.target_addresses[:6]:
                    write(desc + 4, target)  # descriptor dst
                write(desc + 0, base)  # descriptor src
                write(desc + 8, 16)  # descriptor len
                write(base + 4 * DmaDescriptorRing.REG_HEAD, 0)
                write(base + 4 * DmaDescriptorRing.REG_DOORBELL, 1)
                write(base + 4 * DmaDescriptorRing.REG_STATUS, 0)
            elif slave.kind == "secure_boot":
                write(base + 4 * SecureBootSequencer.REG_DEBUG,
                      SecureBootSequencer.DEBUG_MAGIC)
                for stage in (0, 1, 3):
                    write(base + 4 * SecureBootSequencer.REG_STAGE, stage)
                read(base + 4 * SecureBootSequencer.REG_TAMPER)
                for key in range(SecureBootSequencer.KEY_BASE, slave.n_registers):
                    read(base + 4 * key)
            elif slave.is_register_kind:
                for index in slave.sensitive_registers[:4]:
                    read(base + 4 * index)
                write(base, 0xDEAD_BEEF)
            else:  # bram / ddr boundaries
                read(base)
                read(max(base, slave.end - 4))
                write(base, 0xDEAD_BEEF)
        return steps

    # -- primitive draws -------------------------------------------------------------

    def _random_master(self) -> str:
        return self.rng.choice(self.masters)

    def _template_step(self) -> Step:
        template = self.rng.choice(self.templates)
        return Step(
            master=self._random_master(),
            op=template.op,
            address=template.address,
            width=template.width,
            burst_length=template.burst_length,
            data=template.data,
        )

    def _random_step(self) -> Step:
        slave = self.rng.choice(self.slaves)
        max_word = max(1, slave.size // 4)
        address = slave.base + 4 * self.rng.randrange(max_word)
        op = self.rng.choice(("read", "write"))
        width = self.rng.choice((4, 4, 4, 1, 2))
        data: Optional[bytes] = None
        if op == "write":
            data = _word(self.rng.choice(_MAGIC_WORDS))[:width]
        return Step(self._random_master(), op, address, width=width, data=data)

    def _draw_step(self) -> Step:
        if self.templates and self.rng.random() < 0.7:
            return self._template_step()
        return self._random_step()

    # -- public API ------------------------------------------------------------------

    def generate(self, n_steps: int) -> FuzzCase:
        """A fresh case of ``n_steps`` transactions."""
        steps = tuple(self._draw_step() for _ in range(n_steps))
        return FuzzCase(scenario=self.spec.name, seed=self.seed, steps=steps)

    def mutate(self, case: FuzzCase) -> FuzzCase:
        """One to three structural mutations of an existing case."""
        steps = list(case.steps)
        for _ in range(self.rng.randint(1, 3)):
            choice = self.rng.randrange(5)
            if choice == 0 or not steps:  # insert
                index = self.rng.randint(0, len(steps))
                steps.insert(index, self._draw_step())
            elif choice == 1 and len(steps) > 1:  # delete
                steps.pop(self.rng.randrange(len(steps)))
            elif choice == 2:  # replace
                steps[self.rng.randrange(len(steps))] = self._draw_step()
            elif choice == 3 and len(steps) > 1:  # swap adjacent
                index = self.rng.randrange(len(steps) - 1)
                steps[index], steps[index + 1] = steps[index + 1], steps[index]
            else:  # retarget: same access, different master
                index = self.rng.randrange(len(steps))
                old = steps[index]
                steps[index] = Step(
                    self._random_master(), old.op, old.address,
                    width=old.width, burst_length=old.burst_length, data=old.data,
                )
        return case.with_steps(tuple(steps))
