"""System-level integration and property tests.

These exercise the whole stack at once: workload generation, the simulated
platform, the distributed firewalls and the metrics layer.  The two key
system-level invariants are:

* **no false positives** -- workloads that respect the installed policies run
  to completion with zero alerts, protected or not, and read back exactly the
  data they wrote;
* **no false negatives for the covered threat model** -- any tampering with
  the integrity-protected external-memory window is detected on the next
  read, and any policy-violating access from a hijacked master is blocked at
  its interface.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment
from repro.scenarios import WorkloadSpec
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.transaction import BusOperation, BusTransaction, Step, TransactionStatus
from repro.workloads.generators import make_uniform_programs

from tests.conftest import build_figure1, figure1_spec


class TestNoFalsePositives:
    def test_synthetic_workload_runs_clean_when_protected(self):
        system, security = build_figure1()
        programs = make_uniform_programs(
            system.config, list(system.processors), n_operations=40,
            communication_ratio=0.7, external_share=0.3,
            external_working_set=1024, seed=5,
        )
        system.load_programs(programs)
        system.start_all()
        system.run()
        assert system.all_done()
        assert security.monitor.count() == 0
        for cpu in system.processors.values():
            assert cpu.stats.get("blocked_accesses", 0) == 0

    def test_protected_and_unprotected_runs_produce_identical_visible_data(self):
        """Protection must be transparent to software: the values a CPU reads
        back are identical with and without firewalls."""
        def run(protected):
            system, _ = build_figure1(protected)
            cfg = system.config
            program = ProcessorProgram([
                MemoryOperation.write(cfg.ddr_base + 0x20, bytes(range(32))),
                MemoryOperation.read(cfg.ddr_base + 0x20, width=4, burst_length=8),
                MemoryOperation.write(cfg.bram_base + 0x50, b"\x99" * 8),
                MemoryOperation.read(cfg.bram_base + 0x50, width=4, burst_length=2),
            ])
            system.processors["cpu0"].load_program(program)
            system.processors["cpu0"].start()
            system.run()
            return [t.data for t in system.processors["cpu0"].transactions if t.is_read]

        assert run(protected=False) == run(protected=True)

    def test_producer_consumer_data_flow_intact_under_protection(self):
        """cpu0 produces records into a BRAM mailbox and bumps a ready counter
        in the dedicated IP; cpu1 reads the counter and every record back."""
        system, security = build_figure1()
        cfg = system.config
        mailbox = cfg.bram_base + 0x1000
        counter = cfg.ip_regs_base + 4 * (cfg.ip_n_registers - 1)
        records = [bytes((index * 7 + offset) & 0xFF for offset in range(16)) for index in range(6)]
        for index, record in enumerate(records):
            system.issue(Step("cpu0", "write", mailbox + 16 * index, burst_length=4, data=record))
            system.issue(Step("cpu0", "write", counter, data=(index + 1).to_bytes(4, "little")))
        ready = system.issue(Step("cpu1", "read", counter))
        reads = [
            system.issue(Step("cpu1", "read", mailbox + 16 * index, burst_length=4))
            for index in range(len(records))
        ]
        assert int.from_bytes(ready.data, "little") == len(records)
        assert all(txn.status is TransactionStatus.COMPLETED for txn in [ready, *reads])
        assert [txn.data for txn in reads] == records
        assert security.monitor.count() == 0

    def test_firmware_image_round_trips_through_the_protected_window(self):
        """cpu0 streams an image into the ciphered+authenticated DDR window in
        16-byte writes and reads it back: the reads return the image, while
        external memory holds only ciphertext."""
        system, security = build_figure1()
        base = system.config.ddr_base
        image = bytes(((917 + 17 * i) ^ (i >> 3)) & 0xFF for i in range(256))
        chunks = range(0, len(image), 16)
        for offset in chunks:
            system.issue(Step("cpu0", "write", base + offset, burst_length=4,
                              data=image[offset:offset + 16]))
        reads = [system.issue(Step("cpu0", "read", base + offset, burst_length=4)) for offset in chunks]
        assert all(txn.status is TransactionStatus.COMPLETED for txn in reads)
        assert b"".join(txn.data for txn in reads) == image
        assert system.ddr.peek(base, len(image)) != image
        assert security.monitor.count() == 0

    def test_dma_offload_into_the_protected_window_reads_back_as_staged(self):
        """cpu0 stages a buffer in BRAM, the DMA pushes it into the protected
        DDR window through its own firewall, and cpu0 reads the plaintext
        back through the ciphering firewall."""
        system, security = build_figure1()
        cfg = system.config
        staging, destination = cfg.bram_base + 0x2000, cfg.ddr_base + 0x100
        buffer = b"".join(((word * 2654435761) & 0xFFFFFFFF).to_bytes(4, "little") for word in range(16))
        for offset in range(0, len(buffer), 4):
            system.issue(Step("cpu0", "write", staging + offset, data=buffer[offset:offset + 4]))
        finished = []
        system.dma.kickoff(staging, destination, len(buffer), on_done=finished.append)
        system.run()
        assert finished and not system.dma.blocked
        readback = system.issue(Step("cpu0", "read", destination, burst_length=len(buffer) // 4))
        assert readback.status is TransactionStatus.COMPLETED
        assert readback.data == buffer
        assert system.ddr.peek(destination, len(buffer)) != buffer
        assert security.monitor.count() == 0


class TestProtectionOverheadAccounting:
    def test_security_latency_sums_match_breakdowns(self):
        system, _ = build_figure1()
        cfg = system.config
        program = ProcessorProgram([
            MemoryOperation.write(cfg.ddr_base + 0x40, bytes(32)),
            MemoryOperation.read(cfg.ddr_base + 0x40, width=4, burst_length=8),
        ])
        system.processors["cpu0"].load_program(program)
        system.processors["cpu0"].start()
        system.run()
        for txn in system.processors["cpu0"].transactions:
            total = txn.total_latency
            breakdown_sum = sum(txn.latency_breakdown.values())
            # Every charged cycle appears in the timeline (the response path
            # may add a cycle of scheduling slack, never remove one).
            assert total >= breakdown_sum
            assert txn.security_latency <= total

    def test_overhead_is_reproducible(self):
        spec = figure1_spec(workload=WorkloadSpec(
            n_operations=30, communication_ratio=0.5, external_share=0.4,
            internal_working_set=4096, external_working_set=1024, seed=8,
        ))

        def makespans():
            return [
                Experiment.from_spec(spec).no_attacks().protected(protected).run().workload["makespan"]
                for protected in (False, True)
            ]

        first = makespans()
        assert first == makespans()
        assert first[1] > first[0]


class TestNoFalseNegatives:
    @given(
        offset=st.integers(min_value=0, max_value=960),
        corruption=st.binary(min_size=1, max_size=16),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_tampering_of_protected_window_is_detected(self, offset, corruption):
        system, security = build_figure1()
        cfg = system.config
        address = cfg.ddr_base + offset

        # The victim writes a known value somewhere in the protected window.
        write = BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                               address=cfg.ddr_base + (offset // 4) * 4, width=4,
                               data=b"\x5a\x5a\x5a\x5a")
        system.master_ports["cpu0"].issue(write, lambda t: None)
        system.run()

        # The attacker corrupts raw external memory at an arbitrary position.
        original = system.ddr.peek(address, len(corruption))
        if original == corruption:
            corruption = bytes(b ^ 0xFF for b in corruption)
        system.ddr.poke(address, corruption)

        # Any read covering the corrupted block must be rejected.
        block_base = cfg.ddr_base + ((address - cfg.ddr_base) // 32) * 32
        read = BusTransaction(master="cpu0", operation=BusOperation.READ,
                              address=block_base, width=4, burst_length=8)
        system.master_ports["cpu0"].issue(read, lambda t: None)
        system.run()
        assert read.status is TransactionStatus.INTEGRITY_ERROR
        assert security.monitor.count() >= 1

    @given(master=st.sampled_from(["cpu2", "dma"]))
    @settings(max_examples=6, deadline=None)
    def test_unauthorised_masters_never_reach_the_ip(self, master):
        system, security = build_figure1()
        cfg = system.config
        system.register_ip.write_register(0, 0x5EC4E7)
        probe = BusTransaction(master=master, operation=BusOperation.READ,
                               address=cfg.ip_regs_base, width=4)
        system.master_ports[master].issue(probe, lambda t: None)
        system.run()
        assert probe.status is TransactionStatus.BLOCKED_AT_MASTER
        assert master not in system.bus.monitor.per_master
        assert not system.register_ip.sensitive_reads


class TestQuarantineEndToEnd:
    def test_repeated_violations_lead_to_quarantine_on_the_live_platform(self):
        system, security = build_figure1()
        cfg = system.config
        for _ in range(3):
            probe = BusTransaction(master="cpu2", operation=BusOperation.READ,
                                   address=cfg.ip_regs_base, width=4)
            system.master_ports["cpu2"].issue(probe, lambda t: None)
            system.run()
        assert security.master_firewalls["cpu2"].quarantined
        # Even a previously legitimate BRAM access is now blocked.
        legit = BusTransaction(master="cpu2", operation=BusOperation.READ,
                               address=cfg.bram_base, width=4)
        system.master_ports["cpu2"].issue(legit, lambda t: None)
        system.run()
        assert legit.status is TransactionStatus.BLOCKED_AT_MASTER
        assert security.manager.reaction_latency() is not None
