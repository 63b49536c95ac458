"""Tests for the processor model and the Figure-1 platform build."""

from dataclasses import replace

import pytest

from repro.scenarios import MasterSpec, ScenarioBuilder, SlaveSpec, TopologySpec
from repro.soc.processor import MemoryOperation, OperationKind, ProcessorProgram
from repro.soc.transaction import Step, TransactionStatus
from tests.conftest import figure1_spec


class TestMemoryOperation:
    def test_compute_factory(self):
        op = MemoryOperation.compute(25)
        assert op.kind is OperationKind.COMPUTE
        assert op.compute_cycles == 25
        assert not op.is_memory_access
        with pytest.raises(ValueError):
            MemoryOperation.compute(-1)

    def test_read_factory(self):
        op = MemoryOperation.read(0x100, width=2, burst_length=4)
        assert op.kind is OperationKind.READ
        assert op.is_memory_access

    def test_write_factory_derives_burst(self):
        op = MemoryOperation.write(0x100, bytes(16))
        assert op.burst_length == 4
        with pytest.raises(ValueError):
            MemoryOperation.write(0x100, b"abc", width=4)


class TestProcessorProgram:
    def build(self):
        return ProcessorProgram(
            [
                MemoryOperation.compute(10),
                MemoryOperation.write(0x0, bytes(4)),
                MemoryOperation.read(0x0),
                MemoryOperation.compute(5),
            ],
            name="p",
        )

    def test_counts(self):
        program = self.build()
        assert len(program) == 4
        memory = [op for op in program.operations if op.is_memory_access]
        assert len(memory) == 2
        assert sum(op.width * op.burst_length for op in memory) == 8

    def test_append_extend_chaining(self):
        program = ProcessorProgram()
        program.append(MemoryOperation.compute(1)).extend([MemoryOperation.read(0)])
        assert len(program) == 2


class TestProcessorExecution:
    def test_program_runs_to_completion(self, plain_platform):
        system = plain_platform
        cfg = system.config
        program = ProcessorProgram(
            [
                MemoryOperation.write(cfg.bram_base + 0x40, b"\x11\x22\x33\x44"),
                MemoryOperation.compute(50),
                MemoryOperation.read(cfg.bram_base + 0x40),
            ]
        )
        cpu = system.processors["cpu0"]
        cpu.load_program(program)
        cpu.start()
        system.run()
        assert cpu.done
        assert cpu.execution_cycles > 50
        assert cpu.transactions[-1].data == b"\x11\x22\x33\x44"
        assert cpu.stats["completed_accesses"] == 2
        assert cpu.computation_cycles() == 50
        assert cpu.communication_cycles() > 0

    def test_cannot_start_twice_or_reload_after_start(self, plain_platform):
        system = plain_platform
        cpu = system.processors["cpu0"]
        cpu.load_program(ProcessorProgram([MemoryOperation.compute(1)]))
        cpu.start()
        with pytest.raises(RuntimeError):
            cpu.start()
        with pytest.raises(RuntimeError):
            cpu.load_program(ProcessorProgram())

    def test_on_finished_callback(self, plain_platform):
        system = plain_platform
        finished = []
        cpu = system.processors["cpu1"]
        cpu.on_finished = finished.append
        cpu.load_program(ProcessorProgram([MemoryOperation.compute(5)]))
        cpu.start()
        system.run()
        assert finished == [cpu]

    def test_empty_program_finishes_immediately(self, plain_platform):
        system = plain_platform
        cpu = system.processors["cpu0"]
        cpu.start()
        system.run()
        assert cpu.done
        assert cpu.execution_cycles == 0

    def test_three_cpus_share_the_bus(self, plain_platform):
        system = plain_platform
        cfg = system.config
        programs = {}
        for index in range(3):
            programs[f"cpu{index}"] = ProcessorProgram(
                [MemoryOperation.read(cfg.bram_base + 0x10 * index) for _ in range(5)]
            )
        system.load_programs(programs)
        system.start_all()
        system.run()
        assert system.all_done()
        assert system.bus.monitor.count() == 15
        # All three masters appear on the bus.
        assert set(system.bus.monitor.per_master) == {"cpu0", "cpu1", "cpu2"}


class TestReferencePlatform:
    def test_default_topology_matches_paper_figure1(self, plain_platform):
        system = plain_platform
        assert len(system.processors) == 3
        assert system.dma is not None
        assert set(system.memories) == {"bram", "ddr"}
        assert set(system.ips) == {"ip0"}
        topology = system.describe_topology()
        assert len(topology["masters"]) == 4   # 3 CPUs + DMA
        assert len(topology["slaves"]) == 3    # BRAM, DDR, IP
        external = [r for r in topology["regions"] if r["external"]]
        assert [r["name"] for r in external] == ["ddr"]

    def test_spec_validation_rejects_degenerate_platforms(self):
        spec = figure1_spec()
        no_cpu = replace(spec.topology, masters=(MasterSpec("dma", kind="dma"),))
        with pytest.raises(ValueError, match="at least one cpu master"):
            ScenarioBuilder(replace(spec, topology=no_cpu))
        with pytest.raises(ValueError, match="size must be positive"):
            SlaveSpec("bram", "bram", base=0, size=0)

    def test_custom_processor_count(self):
        spec = figure1_spec()
        topology = TopologySpec(
            masters=tuple(MasterSpec(f"cpu{index}") for index in range(5)),
            slaves=spec.topology.slaves,
        )
        system = ScenarioBuilder(replace(spec, topology=topology)).build(False).system
        assert len(system.processors) == 5
        assert system.dma is None

    def test_load_programs_rejects_unknown_cpu(self, plain_platform):
        system = plain_platform
        with pytest.raises(KeyError):
            system.load_programs({"cpu9": ProcessorProgram()})

    def test_execution_cycles_zero_before_running(self, plain_platform):
        system = plain_platform
        assert system.execution_cycles() == 0

    def test_processor_accessor(self, plain_platform):
        system = plain_platform
        assert system.processor(2) is system.processors["cpu2"]


class TestIssue:
    """``SoCSystem.issue`` is the one path a single access takes to the bus."""

    def test_issue_drains_the_transaction_and_everything_it_triggered(self, plain_platform):
        system = plain_platform
        address = system.config.bram_base + 0x40
        write = system.issue(Step("cpu0", "write", address, data=b"\x11\x22\x33\x44"))
        assert write.status is TransactionStatus.COMPLETED
        assert system.sim.pending_events == 0
        now = system.sim.now
        assert now > 0 and system.run() == now
        assert system.issue(Step("cpu1", "read", address)).data == b"\x11\x22\x33\x44"

    def test_an_undrained_issue_completes_on_the_next_run(self, plain_platform):
        system = plain_platform
        txn = system.issue(Step("cpu0", "read", system.config.bram_base), drain=False)
        assert txn.status is not TransactionStatus.COMPLETED
        assert system.sim.pending_events > 0
        final = system.run()
        assert txn.status is TransactionStatus.COMPLETED
        assert final == system.sim.now > 0 and system.sim.pending_events == 0
