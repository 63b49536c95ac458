"""Tests for the Security Builder's checking modules and the alert system."""

import pytest

from repro.core.alerts import SecurityAlert, SecurityMonitor, Severity, ViolationType
from repro.core.checks import (
    AddressRangeCheck,
    BurstLengthCheck,
    CheckResult,
    DataFormatCheck,
    ReadWriteAccessCheck,
    default_check_suite,
)
from repro.core.policy import ReadWriteAccess, SecurityPolicy
from repro.soc.transaction import BusOperation, BusTransaction


def policy(**overrides):
    params = dict(spi=1)
    params.update(overrides)
    return SecurityPolicy(**params)


def read(address=0x100, width=4, burst=1):
    return BusTransaction(master="cpu0", operation=BusOperation.READ,
                          address=address, width=width, burst_length=burst)


def write(address=0x100, width=4, burst=1):
    return BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                          address=address, width=width, burst_length=burst,
                          data=bytes(width * burst))


class TestReadWriteAccessCheck:
    def test_allows_permitted_directions(self):
        check = ReadWriteAccessCheck()
        assert check.check(policy(), read()).passed
        assert check.check(policy(), write()).passed

    def test_blocks_write_to_read_only(self):
        check = ReadWriteAccessCheck()
        result = check.check(policy(rwa=ReadWriteAccess.READ_ONLY), write())
        assert not result.passed
        assert result.violation is ViolationType.UNAUTHORIZED_WRITE

    def test_blocks_read_from_write_only(self):
        check = ReadWriteAccessCheck()
        result = check.check(policy(rwa=ReadWriteAccess.WRITE_ONLY), read())
        assert not result.passed
        assert result.violation is ViolationType.UNAUTHORIZED_READ


class TestDataFormatCheck:
    def test_allows_listed_formats(self):
        check = DataFormatCheck()
        assert check.check(policy(allowed_formats=frozenset({4})), read(width=4)).passed

    def test_blocks_unlisted_format(self):
        check = DataFormatCheck()
        result = check.check(policy(allowed_formats=frozenset({4})), write(width=1))
        assert not result.passed
        assert result.violation is ViolationType.BAD_DATA_FORMAT
        assert "allowed formats" in result.detail


class TestBurstLengthCheck:
    def test_allows_within_limit(self):
        check = BurstLengthCheck()
        assert check.check(policy(max_burst_length=4), read(burst=4)).passed

    def test_blocks_over_limit(self):
        check = BurstLengthCheck()
        result = check.check(policy(max_burst_length=4), read(burst=5))
        assert not result.passed
        assert result.violation is ViolationType.BURST_TOO_LONG


class TestAddressRangeCheck:
    def test_no_windows_means_no_restriction(self):
        check = AddressRangeCheck()
        assert check.check(policy(), read(address=0xDEAD0000)).passed

    def test_inside_window_allowed(self):
        check = AddressRangeCheck(windows=[(0x100, 0x100)])
        assert check.check(policy(), read(address=0x180)).passed

    def test_outside_window_blocked(self):
        check = AddressRangeCheck(windows=[(0x100, 0x100)])
        result = check.check(policy(), read(address=0x300))
        assert not result.passed
        assert result.violation is ViolationType.ADDRESS_OUT_OF_RANGE

    def test_straddling_window_edge_blocked(self):
        check = AddressRangeCheck(windows=[(0x100, 0x10)])
        result = check.check(policy(), read(address=0x10C, width=4, burst=2))
        assert not result.passed


class TestCheckResult:
    def test_ok_and_fail_fill_the_fields(self):
        ok = CheckResult.ok("rwa")
        assert (ok.passed, ok.check, ok.violation, ok.detail) == (True, "rwa", None, "")
        fail = CheckResult.fail("adf", ViolationType.BAD_DATA_FORMAT, detail="width 1")
        assert (fail.passed, fail.check, fail.violation, fail.detail) == (
            False, "adf", ViolationType.BAD_DATA_FORMAT, "width 1",
        )
        assert CheckResult.fail("burst", ViolationType.BURST_TOO_LONG).detail == ""

    def test_fields_are_immutable(self):
        result = CheckResult.fail("rwa", ViolationType.UNAUTHORIZED_WRITE)
        for field in ("passed", "check", "violation", "detail"):
            with pytest.raises(AttributeError):
                setattr(result, field, None)


class TestDefaultSuite:
    def test_contains_all_paper_checks(self):
        names = {type(check).__name__ for check in default_check_suite()}
        assert names == {
            "ReadWriteAccessCheck",
            "DataFormatCheck",
            "BurstLengthCheck",
            "AddressRangeCheck",
        }


class TestSecurityAlert:
    def test_default_severity_per_violation(self):
        alert = SecurityAlert.for_violation(
            cycle=5, firewall="lf", master="cpu0",
            violation=ViolationType.INTEGRITY_FAILURE, address=0x0, txn_id=1,
        )
        assert alert.severity is Severity.CRITICAL
        info = SecurityAlert.for_violation(
            cycle=5, firewall="lf", master="cpu0",
            violation=ViolationType.RECONFIGURATION, address=0x0, txn_id=1,
        )
        assert info.severity is Severity.INFO

    def test_describe_mentions_key_fields(self):
        alert = SecurityAlert.for_violation(
            cycle=42, firewall="lf_cpu1", master="cpu1",
            violation=ViolationType.BAD_DATA_FORMAT, address=0x40000000, txn_id=3,
            detail="width 1",
        )
        text = alert.describe()
        assert "42" in text and "lf_cpu1" in text and "bad_data_format" in text and "width 1" in text


class TestSecurityMonitor:
    def make_alert(self, firewall="lf_a", master="cpu0", cycle=1,
                   violation=ViolationType.UNAUTHORIZED_READ):
        return SecurityAlert.for_violation(
            cycle=cycle, firewall=firewall, master=master,
            violation=violation, address=0x0, txn_id=0,
        )

    def test_counts_and_groupings(self):
        monitor = SecurityMonitor()
        monitor.raise_alert(self.make_alert(firewall="lf_a", master="cpu0", cycle=10))
        monitor.raise_alert(self.make_alert(firewall="lf_b", master="cpu1", cycle=5,
                                            violation=ViolationType.BAD_DATA_FORMAT))
        monitor.raise_alert(self.make_alert(firewall="lf_a", master="cpu0", cycle=20))
        assert monitor.count() == 3
        assert monitor.count(ViolationType.BAD_DATA_FORMAT) == 1
        assert monitor.alerts_by_firewall() == {"lf_a": 2, "lf_b": 1}
        assert monitor.alerts_by_master() == {"cpu0": 2, "cpu1": 1}
        assert monitor.first_detection_cycle() == 5

    def test_subscribers_notified(self):
        monitor = SecurityMonitor()
        received = []
        monitor.subscribe(received.append)
        alert = self.make_alert()
        monitor.raise_alert(alert)
        assert received == [alert]

    def test_clear_and_summary(self):
        monitor = SecurityMonitor()
        assert monitor.first_detection_cycle() is None
        monitor.raise_alert(self.make_alert())
        summary = monitor.summary()
        assert summary["total"] == 1
        monitor.clear()
        assert monitor.count() == 0
