"""Tests for bus transactions and address-map decoding."""

import pytest

from repro.soc.address_map import AddressMap, AddressRegion, DecodeError
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus


class TestBusTransactionValidation:
    def test_read_defaults(self):
        txn = BusTransaction(master="cpu0", operation=BusOperation.READ, address=0x100)
        assert txn.size == 4
        assert txn.is_read and not txn.is_write
        assert txn.status is TransactionStatus.CREATED

    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            BusTransaction(master="cpu0", operation=BusOperation.WRITE, address=0)

    def test_write_data_length_must_match(self):
        with pytest.raises(ValueError):
            BusTransaction(
                master="cpu0", operation=BusOperation.WRITE, address=0, width=4,
                burst_length=2, data=b"too short",
            )

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            BusTransaction(master="m", operation=BusOperation.READ, address=0, width=3)

    def test_invalid_burst(self):
        with pytest.raises(ValueError):
            BusTransaction(master="m", operation=BusOperation.READ, address=0, burst_length=0)

    def test_negative_address(self):
        with pytest.raises(ValueError):
            BusTransaction(master="m", operation=BusOperation.READ, address=-4)

    def test_end_address_and_size(self):
        txn = BusTransaction(master="m", operation=BusOperation.READ, address=0x10,
                             width=4, burst_length=4)
        assert txn.size == 16
        assert txn.end_address == 0x20

    def test_unique_ids(self):
        a = BusTransaction(master="m", operation=BusOperation.READ, address=0)
        b = BusTransaction(master="m", operation=BusOperation.READ, address=0)
        assert a.txn_id != b.txn_id


class TestLifecycle:
    def test_timing_trace(self):
        txn = BusTransaction(master="m", operation=BusOperation.READ, address=0)
        assert txn.total_latency == -1
        txn.mark_issued(10)
        txn.mark_granted(12)
        txn.mark_completed(30, data=b"\x01\x02\x03\x04")
        assert txn.issued_at == 10 and txn.granted_at == 12 and txn.completed_at == 30
        assert txn.total_latency == 20
        assert txn.data == b"\x01\x02\x03\x04"
        assert txn.status is TransactionStatus.COMPLETED

    def test_mark_blocked_requires_blocking_status(self):
        txn = BusTransaction(master="m", operation=BusOperation.READ, address=0)
        with pytest.raises(ValueError):
            txn.mark_blocked(5, TransactionStatus.COMPLETED, "nope")

    def test_blocked_statuses(self):
        for status in (
            TransactionStatus.BLOCKED_AT_MASTER,
            TransactionStatus.BLOCKED_AT_SLAVE,
            TransactionStatus.INTEGRITY_ERROR,
        ):
            txn = BusTransaction(master="m", operation=BusOperation.READ, address=0)
            txn.mark_blocked(3, status, "denied")
            assert txn.status.is_blocked
            assert txn.annotations["block_reason"] == "denied"

    def test_latency_breakdown_and_security_latency(self):
        txn = BusTransaction(master="m", operation=BusOperation.READ, address=0)
        txn.add_latency("security_builder", 12)
        txn.add_latency("bus", 3)
        txn.add_latency("confidentiality_core", 11)
        txn.add_latency("integrity_core", 20)
        txn.add_latency("ddr", 30)
        assert txn.security_latency == 12 + 11 + 20
        with pytest.raises(ValueError):
            txn.add_latency("x", -1)

    def test_clone_for_retry(self):
        txn = BusTransaction(
            master="m", operation=BusOperation.WRITE, address=0x40, width=4,
            burst_length=1, data=b"\xaa\xbb\xcc\xdd",
        )
        txn.mark_issued(1)
        clone = txn.clone_for_retry()
        assert clone.txn_id != txn.txn_id
        assert clone.status is TransactionStatus.CREATED
        assert clone.data == txn.data
        assert clone.address == txn.address

    def test_describe_contains_key_fields(self):
        txn = BusTransaction(master="cpu1", operation=BusOperation.WRITE,
                             address=0x90000000, data=b"\x00" * 4)
        text = txn.describe()
        assert "cpu1" in text and "WRITE" in text and "0x90000000" in text


class TestAddressRegion:
    def test_contains(self):
        region = AddressRegion("bram", base=0x1000, size=0x100, slave="bram")
        assert region.contains(0x1000)
        assert region.contains(0x10FC, 4)
        assert not region.contains(0x10FD, 4)

    def test_invalid_regions(self):
        with pytest.raises(ValueError):
            AddressRegion("x", base=-1, size=4, slave="s")
        with pytest.raises(ValueError):
            AddressRegion("x", base=0, size=0, slave="s")

    def test_overlap(self):
        a = AddressRegion("a", 0, 0x100, "s")
        b = AddressRegion("b", 0x80, 0x100, "s")
        c = AddressRegion("c", 0x100, 0x100, "s")
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestAddressMap:
    def build(self):
        amap = AddressMap()
        amap.add_region("bram", 0x0000_0000, 0x2_0000, slave="bram")
        amap.add_region("ip0", 0x4000_0000, 0x100, slave="ip0")
        amap.add_region("ddr", 0x9000_0000, 0x100_0000, slave="ddr", external=True)
        return amap

    def test_decode(self):
        amap = self.build()
        assert amap.decode(0x100).slave == "bram"
        assert amap.decode(0x4000_0004).slave == "ip0"
        assert amap.decode(0x9000_0000, 16).slave == "ddr"

    def test_decode_error(self):
        amap = self.build()
        with pytest.raises(DecodeError):
            amap.decode(0x5000_0000)

    def test_decode_straddling_region_end_fails(self):
        amap = self.build()
        with pytest.raises(DecodeError):
            amap.decode(0x4000_00FC, 8)  # crosses the end of ip0

    def test_duplicate_and_overlap_rejected(self):
        amap = self.build()
        with pytest.raises(ValueError):
            amap.add_region("bram", 0x8000_0000, 0x100, slave="x")
        with pytest.raises(ValueError):
            amap.add_region("overlap", 0x1_0000, 0x2_0000, slave="x")

    def test_lookup_helpers(self):
        amap = self.build()
        assert amap.region("ddr").external
        assert "ip0" in amap
        assert len(amap) == 3
        assert amap.span() == (0, 0x9100_0000)
        with pytest.raises(KeyError):
            amap.region("nope")

    def test_empty_map_span(self):
        with pytest.raises(ValueError):
            AddressMap().span()
