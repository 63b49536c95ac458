"""Tests for ports, filter chains, a bus segment and arbitration."""

import pytest

from repro.soc.address_map import AddressMap
from repro.soc.fabric import BusSegment, FixedPriorityArbiter, RoundRobinArbiter
from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM
from repro.soc.ports import (
    FilterResult,
    MasterPort,
    PassthroughFilter,
    SlavePort,
    TransactionFilter,
)
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus


class DenyWritesFilter(TransactionFilter):
    """Test filter denying every write with a fixed latency."""

    name = "deny_writes"

    def __init__(self, latency=5):
        self.latency = latency

    def filter_request(self, txn):
        if txn.is_write:
            return FilterResult.deny("writes forbidden", latency=self.latency, stage=self.name)
        return FilterResult.allow(latency=self.latency, stage=self.name)


class UppercaseDataFilter(TransactionFilter):
    """Test filter transforming write payloads (models the ciphering path)."""

    name = "uppercase"

    def filter_request(self, txn):
        if txn.is_write and txn.data is not None:
            return FilterResult.allow(stage=self.name, transformed_data=txn.data.upper())
        return FilterResult.allow(stage=self.name)


def build_single_master_platform(filters=None, slave_filters=None):
    sim = Simulator()
    amap = AddressMap()
    amap.add_region("mem", 0x0, 0x1000, slave="mem")
    bus = BusSegment(sim, "system_bus", address_map=amap)
    memory = BlockRAM(sim, "mem", base=0x0, size=0x1000)
    slave_port = SlavePort(sim, "mem_port", memory, filters=slave_filters)
    bus.connect_slave(slave_port)
    master_port = MasterPort(sim, "cpu_port", filters=filters)
    bus.connect_master(master_port)
    return sim, bus, memory, master_port, slave_port


def issue_and_run(sim, port, txn):
    results = []
    port.issue(txn, results.append)
    sim.run()
    assert len(results) == 1
    return results[0]


class TestMasterPortFilters:
    def test_unfiltered_write_and_read(self):
        sim, bus, memory, port, _ = build_single_master_platform()
        write = BusTransaction(master="cpu", operation=BusOperation.WRITE,
                               address=0x10, data=b"\x01\x02\x03\x04")
        result = issue_and_run(sim, port, write)
        assert result.status is TransactionStatus.COMPLETED
        assert memory.peek(0x10, 4) == b"\x01\x02\x03\x04"

        read = BusTransaction(master="cpu", operation=BusOperation.READ, address=0x10)
        result = issue_and_run(sim, port, read)
        assert result.data == b"\x01\x02\x03\x04"

    def test_deny_filter_blocks_at_master_and_never_reaches_bus(self):
        sim, bus, memory, port, _ = build_single_master_platform(filters=[DenyWritesFilter()])
        write = BusTransaction(master="cpu", operation=BusOperation.WRITE,
                               address=0x10, data=b"\xff" * 4)
        result = issue_and_run(sim, port, write)
        assert result.status is TransactionStatus.BLOCKED_AT_MASTER
        assert bus.monitor.count() == 0
        assert memory.peek(0x10, 4) == bytes(4)
        assert "writes forbidden" in result.annotations["block_reason"]

    def test_deny_filter_still_allows_reads(self):
        sim, _, memory, port, _ = build_single_master_platform(filters=[DenyWritesFilter()])
        memory.poke(0x20, b"\xaa" * 4)
        read = BusTransaction(master="cpu", operation=BusOperation.READ, address=0x20)
        result = issue_and_run(sim, port, read)
        assert result.status is TransactionStatus.COMPLETED
        assert result.data == b"\xaa" * 4

    def test_filter_latency_is_charged(self):
        sim, _, _, port, _ = build_single_master_platform(filters=[PassthroughFilter(latency=9)])
        read = BusTransaction(master="cpu", operation=BusOperation.READ, address=0x0)
        result = issue_and_run(sim, port, read)
        # Request and response both traverse the filter: 2 x 9 cycles.
        assert result.latency_breakdown["passthrough"] == 18
        assert result.total_latency >= 18

    def test_filter_chain_short_circuits(self):
        counting = PassthroughFilter(latency=1)
        sim, _, _, port, _ = build_single_master_platform(
            filters=[DenyWritesFilter(latency=2), counting]
        )
        write = BusTransaction(master="cpu", operation=BusOperation.WRITE,
                               address=0x0, data=bytes(4))
        result = issue_and_run(sim, port, write)
        assert result.status is TransactionStatus.BLOCKED_AT_MASTER
        # The passthrough stage never ran on the request path.
        assert "passthrough" not in result.latency_breakdown

    def test_master_port_requires_bus(self):
        sim = Simulator()
        port = MasterPort(sim, "orphan")
        txn = BusTransaction(master="x", operation=BusOperation.READ, address=0)
        with pytest.raises(RuntimeError):
            port.issue(txn, lambda t: None)

    def test_stats_counters(self):
        sim, _, _, port, _ = build_single_master_platform(filters=[DenyWritesFilter()])
        issue_and_run(sim, port, BusTransaction(master="cpu", operation=BusOperation.READ, address=0))
        issue_and_run(sim, port, BusTransaction(master="cpu", operation=BusOperation.WRITE,
                                                address=0, data=bytes(4)))
        assert port.stats["issued"] == 2
        assert port.stats["completed"] == 1
        assert port.stats["blocked_requests"] == 1


class TestSlavePortFilters:
    def test_slave_filter_transforms_written_data(self):
        sim, _, memory, port, _ = build_single_master_platform(
            slave_filters=[UppercaseDataFilter()]
        )
        write = BusTransaction(master="cpu", operation=BusOperation.WRITE,
                               address=0x30, data=b"abcd")
        issue_and_run(sim, port, write)
        assert memory.peek(0x30, 4) == b"ABCD"

    def test_slave_filter_deny_blocks_at_slave(self):
        sim, bus, memory, port, _ = build_single_master_platform(
            slave_filters=[DenyWritesFilter()]
        )
        write = BusTransaction(master="cpu", operation=BusOperation.WRITE,
                               address=0x30, data=b"abcd")
        result = issue_and_run(sim, port, write)
        assert result.status is TransactionStatus.BLOCKED_AT_SLAVE
        assert memory.peek(0x30, 4) == bytes(4)
        # The transaction did reach the bus (it was blocked later).
        assert bus.monitor.count() == 1


class TestBusRouting:
    def test_decode_error(self):
        sim, _, _, port, _ = build_single_master_platform()
        bad = BusTransaction(master="cpu", operation=BusOperation.READ, address=0x8000_0000)
        result = issue_and_run(sim, port, bad)
        assert result.status is TransactionStatus.DECODE_ERROR

    def test_monitor_records_master_and_slave(self):
        sim, bus, _, port, _ = build_single_master_platform()
        issue_and_run(sim, port, BusTransaction(master="cpu", operation=BusOperation.READ, address=0x0))
        assert bus.monitor.per_master == {"cpu": 1}
        assert bus.monitor.per_slave == {"mem": 1}
        assert [txn.master for txn in bus.monitor.history] == ["cpu"]

    def test_burst_transfer_cycles(self):
        sim, _, _, port, _ = build_single_master_platform()
        burst = BusTransaction(master="cpu", operation=BusOperation.READ, address=0x0,
                               width=4, burst_length=8)
        result = issue_and_run(sim, port, burst)
        # address phase (1) + 8 data beats.
        assert result.latency_breakdown["bus"] == 9

    def test_duplicate_connections_rejected(self):
        sim, bus, memory, port, slave_port = build_single_master_platform()
        with pytest.raises(ValueError):
            bus.connect_master(port)
        with pytest.raises(ValueError):
            bus.connect_slave(slave_port)


class TestArbitration:
    def build_two_master_platform(self, arbiter):
        sim = Simulator()
        amap = AddressMap()
        amap.add_region("mem", 0x0, 0x1000, slave="mem")
        bus = BusSegment(sim, "system_bus", address_map=amap, arbiter=arbiter)
        memory = BlockRAM(sim, "mem", base=0x0, size=0x1000, read_latency=5)
        bus.connect_slave(SlavePort(sim, "mem_port", memory))
        ports = {}
        for name in ("alpha", "beta"):
            port = MasterPort(sim, f"{name}_port")
            bus.connect_master(port)
            ports[name] = port
        return sim, bus, ports

    def _issue_pair(self, sim, ports, order):
        completions = []
        for name in order:
            txn = BusTransaction(master=name, operation=BusOperation.READ, address=0x0)
            ports[name].issue(txn, lambda t, n=name: completions.append((n, sim.now)))
        sim.run()
        return completions

    def test_round_robin_alternates(self):
        sim, bus, ports = self.build_two_master_platform(RoundRobinArbiter())
        completions = []
        for i in range(4):
            for name in ("alpha", "beta"):
                txn = BusTransaction(master=name, operation=BusOperation.READ, address=0x0)
                ports[name].issue(txn, lambda t, n=name: completions.append(n))
        sim.run()
        assert completions.count("alpha") == 4
        assert completions.count("beta") == 4
        # Round robin interleaves rather than serving one master's whole queue.
        assert completions[:2] in (["alpha", "beta"], ["beta", "alpha"])

    def test_fixed_priority_prefers_listed_master(self):
        arbiter = FixedPriorityArbiter(priority=["alpha", "beta"])
        sim, bus, ports = self.build_two_master_platform(arbiter)
        completions = []
        # Queue three requests from each master before any is served; with
        # fixed priority, every alpha request completes before any beta one
        # (except the very first grant which races the queueing).
        for _ in range(3):
            for name in ("beta", "alpha"):
                txn = BusTransaction(master=name, operation=BusOperation.READ, address=0x0)
                ports[name].issue(txn, lambda t, n=name: completions.append(n))
        sim.run()
        assert len(completions) == 6
        # The last grants must all be beta: alpha drains first under priority.
        assert completions[-2:] == ["beta", "beta"]

    def test_pending_count(self):
        sim, bus, ports = self.build_two_master_platform(RoundRobinArbiter())
        for _ in range(3):
            txn = BusTransaction(master="alpha", operation=BusOperation.READ, address=0x0)
            ports["alpha"].issue(txn, lambda t: None)
        # Before running, requests are queued at the port or bus level.
        sim.run()
        assert bus.pending_count() == 0
        assert bus.stats["granted"] == 3


class TestDecodeCacheLRU:
    """Regression tests for the bounded-LRU decode memo of AddressMap."""

    def _map_with_regions(self, n=4):
        amap = AddressMap()
        for index in range(n):
            amap.add_region(f"r{index}", 0x1000 * index, 0x1000, slave=f"s{index}")
        return amap

    def test_adding_a_region_invalidates_stale_answers(self):
        amap = AddressMap()
        amap.add_region("low", 0x0, 0x1000, slave="old")
        assert amap.decode(0x10).slave == "old"  # now memoised
        amap.add_region("high", 0x1000, 0x1000, slave="new")
        assert amap.decode(0x1010).slave == "new"
        # The memo was dropped on add; the old answer is recomputed, not stale.
        assert amap.decode(0x10).slave == "old"

    def test_eviction_is_lru_not_wholesale(self, monkeypatch):
        amap = self._map_with_regions(1)
        monkeypatch.setattr(AddressMap, "DECODE_CACHE_LIMIT", 4)
        for address in (0x0, 0x4, 0x8, 0xC):
            amap.decode(address)
        assert len(amap._decode_cache) == 4
        # Touch 0x0 so it becomes most-recently-used, then overflow the memo.
        amap.decode(0x0)
        amap.decode(0x10)
        cached = set(amap._decode_cache)
        assert len(cached) == 4, "one entry evicted, not a wholesale clear"
        assert (0x4, 1) not in cached, "the least-recently-used entry is evicted"
        assert (0x0, 1) in cached, "the recently-touched entry survives"
        assert (0x10, 1) in cached

    def test_cache_never_exceeds_limit_under_sweep(self, monkeypatch):
        amap = self._map_with_regions(4)
        monkeypatch.setattr(AddressMap, "DECODE_CACHE_LIMIT", 16)
        for address in range(0, 0x4000, 4):
            amap.decode(address)
        assert len(amap._decode_cache) == 16
