"""Synthetic workload generator with controllable communication ratios.

A generated program interleaves compute bursts and memory accesses so that

* ``communication_ratio`` ≈ (memory operations) / (memory operations +
  compute operations), and
* ``external_share`` ≈ fraction of the memory operations that target the
  external DDR rather than internal resources (BRAM / IP registers),

which are the two quantities the paper identifies as driving the overhead of
the security enhancements.  The generator is deterministic given its seed, so
every experiment sweep is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.system import SoCConfig

__all__ = ["SyntheticWorkloadConfig", "SyntheticWorkloadGenerator", "make_uniform_programs"]


@dataclass
class SyntheticWorkloadConfig:
    """Parameters of one synthetic program."""

    n_operations: int = 200
    communication_ratio: float = 0.5
    external_share: float = 0.3
    write_fraction: float = 0.5
    compute_burst_cycles: int = 20
    burst_length: int = 1
    width: int = 4
    #: Working-set sizes (bytes) within each target region.
    internal_working_set: int = 4096
    external_working_set: int = 4096
    #: Fraction of internal accesses aimed at the IP register file.
    ip_share_of_internal: float = 0.1
    seed: int = 1

    def validate(self) -> None:
        if self.n_operations <= 0:
            raise ValueError("n_operations must be positive")
        for name in ("communication_ratio", "external_share", "write_fraction", "ip_share_of_internal"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.width not in (1, 2, 4):
            raise ValueError("width must be 1, 2 or 4")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        if self.compute_burst_cycles < 0:
            raise ValueError("compute_burst_cycles must be non-negative")


class SyntheticWorkloadGenerator:
    """Builds :class:`ProcessorProgram` objects from a :class:`SyntheticWorkloadConfig`."""

    def __init__(self, soc_config: Optional[SoCConfig] = None) -> None:
        self.soc_config = soc_config or SoCConfig()

    # -- address pools -------------------------------------------------------------

    def _aligned(self, base: int, working_set: int, rng: random.Random, size: int) -> int:
        """A size-aligned address within ``[base, base + working_set)``."""
        slots = max(1, working_set // size)
        return base + rng.randrange(slots) * size

    def _internal_address(self, rng: random.Random, cfg: SyntheticWorkloadConfig, size: int) -> int:
        soc = self.soc_config
        if rng.random() < cfg.ip_share_of_internal:
            # IP register file (word aligned, stays within the register bank).
            return self._aligned(soc.ip_regs_base, 4 * soc.ip_n_registers, rng, 4)
        working_set = min(cfg.internal_working_set, soc.bram_size)
        return self._aligned(soc.bram_base, working_set, rng, size)

    def _external_address(self, rng: random.Random, cfg: SyntheticWorkloadConfig, size: int) -> int:
        soc = self.soc_config
        working_set = min(cfg.external_working_set, soc.ddr_size)
        return self._aligned(soc.ddr_base, working_set, rng, size)

    # -- program generation ----------------------------------------------------------

    def generate(self, cfg: SyntheticWorkloadConfig, name: str = "synthetic") -> ProcessorProgram:
        """Generate one program according to the configuration."""
        cfg.validate()
        rng = random.Random(cfg.seed)
        program = ProcessorProgram(name=name)
        payload_size = cfg.width * cfg.burst_length

        for index in range(cfg.n_operations):
            if rng.random() >= cfg.communication_ratio:
                program.append(MemoryOperation.compute(cfg.compute_burst_cycles))
                continue

            external = rng.random() < cfg.external_share
            size = payload_size
            if external:
                address = self._external_address(rng, cfg, size)
            else:
                address = self._internal_address(rng, cfg, size)
                if address >= self.soc_config.ip_regs_base and address < self.soc_config.ddr_base:
                    # IP registers only take single-beat word accesses.
                    size = 4

            if rng.random() < cfg.write_fraction:
                data = bytes((index + i) & 0xFF for i in range(size))
                program.append(
                    MemoryOperation.write(address, data, width=4 if size % 4 == 0 else cfg.width)
                )
            else:
                if size == payload_size:
                    program.append(
                        MemoryOperation.read(address, width=cfg.width, burst_length=cfg.burst_length)
                    )
                else:
                    program.append(MemoryOperation.read(address, width=4, burst_length=1))
        return program

    def generate_per_cpu(
        self,
        base_config: SyntheticWorkloadConfig,
        cpu_names: Sequence[str],
    ) -> Dict[str, ProcessorProgram]:
        """One program per CPU, named ``synthetic_<cpu>``, with decorrelated
        seeds but identical ratios."""
        programs: Dict[str, ProcessorProgram] = {}
        for index, cpu in enumerate(cpu_names):
            cfg = SyntheticWorkloadConfig(**{**base_config.__dict__, "seed": base_config.seed + 1000 * (index + 1)})
            programs[cpu] = self.generate(cfg, name=f"synthetic_{cpu}")
        return programs


def make_uniform_programs(
    soc_config: SoCConfig,
    cpu_names: Sequence[str],
    n_operations: int = 200,
    communication_ratio: float = 0.5,
    external_share: float = 0.3,
    seed: int = 1,
    **kwargs,
) -> Dict[str, ProcessorProgram]:
    """Per-CPU programs from one :class:`SyntheticWorkloadConfig`."""
    generator = SyntheticWorkloadGenerator(soc_config)
    cfg = SyntheticWorkloadConfig(
        n_operations=n_operations,
        communication_ratio=communication_ratio,
        external_share=external_share,
        seed=seed,
        **kwargs,
    )
    return generator.generate_per_cpu(cfg, cpu_names)
