"""Handle on a constructed platform: simulator, interconnect, devices, ports.

Every platform — the paper's Figure 1 ("3 MicroBlaze softcore
microprocessors, one internal shared memory (BRAM blocks), one external
memory (DDR RAM) and one dedicated IP", section V) and any other topology —
is assembled by :class:`repro.scenarios.builder.ScenarioBuilder` from a
scenario spec onto a :class:`SoCSystem`.  The security layer of
:mod:`repro.core` attaches firewalls to its ports afterwards, so the same
build produces both the "w/o firewalls" baseline and the protected system.

:class:`SoCConfig` mirrors the slave names and address geometry of the
primary BRAM, dedicated IP and DDR, which attacks, workload generators and
the centralized baseline address.  Its defaults, used for a topology without
one of those slaves, are the paper's reference memory map:

========== ============ =========== ==========================
region      base          size        slave
========== ============ =========== ==========================
bram        0x0000_0000   128 KiB     on-chip BRAM
ip0_regs    0x4000_0000   256 B       dedicated IP register file
ddr         0x9000_0000   16 MiB      external DDR (off-chip)
========== ============ =========== ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.soc.address_map import AddressMap
from repro.soc.fabric import InterconnectFabric
from repro.soc.ip import DMAEngine, RegisterFileIP
from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM, ExternalDDR
from repro.soc.ports import MasterPort, SlavePort
from repro.soc.processor import Processor, ProcessorProgram
from repro.soc.transaction import BusOperation, BusTransaction, Step

__all__ = ["SoCConfig", "SoCSystem"]


@dataclass
class SoCConfig:
    """Slave names and address geometry of the primary BRAM, dedicated IP and DDR."""

    bram_base: int = 0x0000_0000
    bram_size: int = 128 * 1024
    ip_regs_base: int = 0x4000_0000
    ip_n_registers: int = 64
    ddr_base: int = 0x9000_0000
    ddr_size: int = 16 * 1024 * 1024
    bram_name: str = "bram"
    ip_name: str = "ip0"
    ddr_name: str = "ddr"


class SoCSystem:
    """Handle on a constructed platform: simulator, fabric, devices and ports.

    :attr:`bus` is the platform's :class:`InterconnectFabric`; the paper's
    flat shared bus is its one-segment form.

    The security layer manipulates :attr:`master_ports` and
    :attr:`slave_ports` to insert firewalls; the workload layer loads programs
    into :attr:`processors`; the metrics layer reads component statistics
    through :attr:`sim`.
    """

    def __init__(self, sim: Simulator, bus: InterconnectFabric, config: SoCConfig) -> None:
        self.sim = sim
        self.bus = bus
        self.config = config
        self.processors: Dict[str, Processor] = {}
        self.master_ports: Dict[str, MasterPort] = {}
        self.slave_ports: Dict[str, SlavePort] = {}
        self.memories: Dict[str, object] = {}
        self.ips: Dict[str, object] = {}
        self.dma: Optional[DMAEngine] = None

    # -- convenience accessors -------------------------------------------------------

    @property
    def address_map(self) -> AddressMap:
        return self.bus.address_map

    @property
    def bram(self) -> BlockRAM:
        """The primary BRAM (:attr:`SoCConfig.bram_name`)."""
        return self.memories[self.config.bram_name]  # type: ignore[return-value]

    @property
    def ddr(self) -> ExternalDDR:
        """The primary DDR (:attr:`SoCConfig.ddr_name`)."""
        return self.memories[self.config.ddr_name]  # type: ignore[return-value]

    @property
    def register_ip(self) -> RegisterFileIP:
        """The dedicated IP (:attr:`SoCConfig.ip_name`)."""
        return self.ips[self.config.ip_name]  # type: ignore[return-value]

    def processor(self, index: int) -> Processor:
        """Processor ``cpu<index>``."""
        return self.processors[f"cpu{index}"]

    # -- generic assembly ------------------------------------------------------------
    #
    # The scenario engine (:mod:`repro.scenarios.builder`) assembles every
    # platform from these primitives.  ``segment`` selects which fabric
    # segment the port attaches to; None means the default (first) segment,
    # the only one of a flat bus.

    def add_memory(self, device, segment: Optional[str] = None) -> SlavePort:
        """Connect a memory device as a bus slave; returns its slave port."""
        port = SlavePort(self.sim, f"{device.name}_port", device)
        self.memories[device.name] = device
        self.slave_ports[device.name] = port
        self.bus.connect_slave(port, segment=segment)
        return port

    def add_ip(self, device, segment: Optional[str] = None) -> SlavePort:
        """Connect a slave IP (e.g. a register file); returns its slave port."""
        port = SlavePort(self.sim, f"{device.name}_port", device)
        self.ips[device.name] = device
        self.slave_ports[device.name] = port
        self.bus.connect_slave(port, segment=segment)
        return port

    def add_processor(self, name: str, segment: Optional[str] = None) -> Processor:
        """Create a processor with its own master port on the bus."""
        port = MasterPort(self.sim, f"{name}_port")
        self.bus.connect_master(port, segment=segment)
        self.master_ports[name] = port
        processor = Processor(self.sim, name, port)
        self.processors[name] = processor
        return processor

    def add_dma(self, name: str = "dma", segment: Optional[str] = None) -> DMAEngine:
        """Create a DMA master engine on the bus (also stored as :attr:`dma`)."""
        port = MasterPort(self.sim, f"{name}_port")
        self.bus.connect_master(port, segment=segment)
        self.master_ports[name] = port
        engine = DMAEngine(self.sim, name, port)
        if self.dma is None:
            self.dma = engine
        return engine

    def load_programs(self, programs: Dict[str, ProcessorProgram]) -> None:
        """Load one program per processor name."""
        for name, program in programs.items():
            if name not in self.processors:
                raise KeyError(f"no processor named {name}")
            self.processors[name].load_program(program)

    def start_all(self, stagger: int = 0) -> None:
        """Start every processor, optionally staggering their start cycles."""
        for index, processor in enumerate(self.processors.values()):
            processor.start(delay=index * stagger)

    def issue(self, step: Step, *, drain: bool = True) -> BusTransaction:
        """Issue ``step`` as a fresh transaction on its master's port.

        This is where every attack, chain step, fuzz step and verifier witness
        meets the bus.  The simulator then runs until the transaction, and
        everything it triggered, completes; ``drain=False`` leaves that to a
        caller already inside the simulation (:func:`repro.attacks.base.issue_train`).
        """
        try:
            port = self.master_ports[step.master]
        except KeyError:
            raise ValueError(
                f"no master named {step.master!r}; known: {sorted(self.master_ports)}"
            ) from None
        txn = BusTransaction(
            step.master,
            BusOperation.WRITE if step.op == "write" else BusOperation.READ,
            step.address,
            step.width,
            step.burst_length,
            step.data,
        )
        port.issue(txn, lambda _t: None)
        if drain:
            self.sim.run()
        return txn

    def run(self) -> int:
        """Run the simulation until no event is left; returns the final cycle."""
        return self.sim.run()

    def all_done(self) -> bool:
        """Whether every processor has finished its program."""
        return all(p.done for p in self.processors.values())

    def execution_cycles(self) -> int:
        """Makespan: cycle at which the last processor finished."""
        finish_times = [p.finished_at for p in self.processors.values() if p.finished_at is not None]
        if not finish_times:
            return 0
        return max(finish_times)

    def describe_topology(self) -> Dict[str, object]:
        """Structural description used to regenerate Figure 1 as a report.

        ``"fabric"`` carries the segment/bridge structure.
        """
        return {
            "fabric": self.bus.describe(),
            "bus": self.bus.name,
            "masters": {
                name: {
                    "port": port.name,
                    "filters": [type(f).__name__ for f in port.filters],
                }
                for name, port in self.master_ports.items()
            },
            "slaves": {
                name: {
                    "port": port.name,
                    "device": type(port.device).__name__,
                    "filters": [type(f).__name__ for f in port.filters],
                }
                for name, port in self.slave_ports.items()
            },
            "regions": [
                {
                    "name": region.name,
                    "base": region.base,
                    "size": region.size,
                    "slave": region.slave,
                    "external": region.external,
                }
                for region in self.address_map
            ],
        }
