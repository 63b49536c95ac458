"""Tests for the memory models, the register-file IP and the DMA engine."""

import pytest

from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM, ExternalDDR
from repro.soc.ip import DMAEngine, RegisterFileIP
from repro.soc.transaction import BusOperation, BusTransaction


def read_txn(address, width=4, burst=1, master="cpu0"):
    return BusTransaction(master=master, operation=BusOperation.READ,
                          address=address, width=width, burst_length=burst)


def write_txn(address, data, width=4, master="cpu0"):
    return BusTransaction(master=master, operation=BusOperation.WRITE,
                          address=address, width=width,
                          burst_length=max(1, len(data) // width), data=data)


class TestBlockRAM:
    def test_peek_poke_roundtrip(self):
        bram = BlockRAM(Simulator(), "bram", base=0x1000, size=0x100)
        bram.poke(0x1010, b"\x01\x02\x03\x04")
        assert bram.peek(0x1010, 4) == b"\x01\x02\x03\x04"

    def test_out_of_range_access_rejected(self):
        bram = BlockRAM(Simulator(), "bram", base=0x1000, size=0x100)
        with pytest.raises(ValueError):
            bram.peek(0x0FFF, 4)
        with pytest.raises(ValueError):
            bram.poke(0x10FE, b"\x00" * 4)

    def test_timed_access_updates_stats(self):
        bram = BlockRAM(Simulator(), "bram", base=0, size=0x100)
        latency, _ = bram.access(write_txn(0x10, b"\xaa" * 4))
        assert latency == 1
        latency, data = bram.access(read_txn(0x10))
        assert data == b"\xaa" * 4
        assert bram.stats["reads"] == 1 and bram.stats["writes"] == 1
        assert bram.stats["bytes_written"] == 4

    def test_burst_latency_scales_with_beats(self):
        bram = BlockRAM(Simulator(), "bram", base=0, size=0x100, read_latency=1)
        latency, _ = bram.access(read_txn(0x0, burst=8))
        assert latency == 1 + 7

    def test_invalid_construction(self):
        from repro.soc.memory import MemoryDevice

        with pytest.raises(ValueError):
            BlockRAM(Simulator(), "bram", base=0, size=0)
        with pytest.raises(ValueError):
            MemoryDevice(Simulator(), "mem", base=0, size=16, fill=300)


class TestExternalDDR:
    def make(self, **kwargs):
        return ExternalDDR(Simulator(), "ddr", base=0x9000_0000, size=0x10000,
                           row_size=1024, n_banks=2, row_hit_latency=10,
                           row_miss_latency=30, **kwargs)

    def test_row_miss_then_hit(self):
        ddr = self.make()
        first, _ = ddr.access(read_txn(0x9000_0000))
        second, _ = ddr.access(read_txn(0x9000_0004))
        assert first == 30  # cold row
        assert second == 10  # open-row hit
        assert ddr.stats["row_misses"] == 1 and ddr.stats["row_hits"] == 1

    def test_different_rows_same_bank_miss(self):
        ddr = self.make()
        ddr.access(read_txn(0x9000_0000))          # row 0, bank 0
        latency, _ = ddr.access(read_txn(0x9000_0800))  # row 2, bank 0 again
        assert latency == 30

    def test_data_roundtrip_through_timed_access(self):
        ddr = self.make()
        ddr.access(write_txn(0x9000_0100, b"\xde\xad\xbe\xef"))
        _, data = ddr.access(read_txn(0x9000_0100))
        assert data == b"\xde\xad\xbe\xef"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExternalDDR(Simulator(), "ddr", base=0, size=1024, row_size=0)


class TestRegisterFileIP:
    def make(self):
        return RegisterFileIP(Simulator(), "ip0", base=0x4000_0000, n_registers=8,
                              sensitive_registers=[0, 1])

    def test_direct_register_access(self):
        ip = self.make()
        ip.write_register(3, 0xDEADBEEF)
        assert ip.read_register(3) == 0xDEADBEEF
        with pytest.raises(IndexError):
            ip.read_register(8)

    def test_bus_write_and_read(self):
        ip = self.make()
        latency, _ = ip.access(write_txn(0x4000_000C, (77).to_bytes(4, "little")))
        assert latency == ip.access_latency_cycles
        assert ip.read_register(3) == 77
        _, data = ip.access(read_txn(0x4000_000C))
        assert int.from_bytes(data, "little") == 77

    def test_sensitive_read_is_recorded(self):
        ip = self.make()
        ip.write_register(0, 0x5EC4E7)
        ip.access(read_txn(0x4000_0000, master="dma"))
        assert ip.sensitive_reads == [("dma", 0)]
        assert ip.stats["sensitive_register_reads"] == 1

    def test_non_sensitive_read_not_recorded(self):
        ip = self.make()
        ip.access(read_txn(0x4000_0010))
        assert ip.sensitive_reads == []

    def test_out_of_range_address(self):
        ip = self.make()
        with pytest.raises(ValueError):
            ip.access(read_txn(0x4000_1000))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RegisterFileIP(Simulator(), "ip", base=0, n_registers=0)


class TestDMAEngine:
    def test_copy_bram_to_ddr(self, plain_platform):
        system = plain_platform
        source = system.config.bram_base + 0x100
        destination = system.config.ddr_base + 0x100
        payload = bytes(range(64))
        system.bram.poke(source, payload)

        finished = []
        system.dma.kickoff(source, destination, len(payload), on_done=finished.append)
        system.run()
        assert finished and not system.dma.blocked
        assert system.dma.bytes_copied == len(payload)
        assert system.ddr.peek(destination, len(payload)) == payload

    def test_kickoff_validation(self, plain_platform):
        system = plain_platform
        with pytest.raises(ValueError):
            system.dma.kickoff(0, 0x100, 0)
        system.dma.kickoff(0, system.config.ddr_base, 16)
        with pytest.raises(RuntimeError):
            system.dma.kickoff(0, system.config.ddr_base, 16)

    def test_invalid_burst_bytes(self):
        sim = Simulator()
        from repro.soc.ports import MasterPort

        with pytest.raises(ValueError):
            DMAEngine(sim, "dma", MasterPort(sim, "p"), burst_bytes=3)
