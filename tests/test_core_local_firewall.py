"""Tests for the Local Firewall (LFCB + Security Builder + Firewall Interface)."""


from repro.core.alerts import SecurityMonitor, ViolationType
from repro.core.constants import SECURITY_BUILDER_CYCLES
from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ConfigurationMemory, ReadWriteAccess, SecurityPolicy
from repro.soc.kernel import Simulator
from repro.soc.transaction import BusOperation, BusTransaction


def make_firewall(rules=None, monitor=None, **kwargs):
    sim = Simulator()
    memory = ConfigurationMemory("cfg_test", capacity=8)
    for base, size, policy in rules or []:
        memory.add(base, size, policy)
    firewall = LocalFirewall(sim, "lf_test", memory, monitor=monitor, **kwargs)
    return sim, firewall


def full_access(spi=1, **overrides):
    params = dict(spi=spi)
    params.update(overrides)
    return SecurityPolicy(**params)


def read(address, width=4, burst=1, master="cpu0"):
    return BusTransaction(master=master, operation=BusOperation.READ,
                          address=address, width=width, burst_length=burst)


def write(address, data=None, width=4, master="cpu0"):
    data = data or bytes(width)
    return BusTransaction(master=master, operation=BusOperation.WRITE,
                          address=address, width=width,
                          burst_length=max(1, len(data) // width), data=data)


class TestRequestFiltering:
    def test_allowed_access_passes_and_charges_sb_latency(self):
        _, firewall = make_firewall(rules=[(0x0, 0x1000, full_access())])
        result = firewall.filter_request(read(0x100))
        assert result.allowed
        assert result.latency == SECURITY_BUILDER_CYCLES
        assert result.stage == "security_builder"
        assert firewall.communication_block.secpol_requests == 1
        assert firewall.firewall_interface.passed == 1

    def test_policy_miss_denied(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(rules=[(0x0, 0x100, full_access())], monitor=monitor)
        result = firewall.filter_request(read(0x5000))
        assert not result.allowed
        assert monitor.count(ViolationType.POLICY_MISS) == 1
        assert firewall.firewall_interface.discarded == 1

    def test_write_to_read_only_region_denied(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(
            rules=[(0x0, 0x1000, full_access(rwa=ReadWriteAccess.READ_ONLY))],
            monitor=monitor,
        )
        result = firewall.filter_request(write(0x10))
        assert not result.allowed
        assert monitor.count(ViolationType.UNAUTHORIZED_WRITE) == 1

    def test_bad_format_denied(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(
            rules=[(0x0, 0x1000, full_access(allowed_formats=frozenset({4})))],
            monitor=monitor,
        )
        result = firewall.filter_request(write(0x10, data=b"\x01", width=1))
        assert not result.allowed
        assert monitor.count(ViolationType.BAD_DATA_FORMAT) == 1

    def test_burst_limit_denied(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(
            rules=[(0x0, 0x1000, full_access(max_burst_length=2))], monitor=monitor
        )
        result = firewall.filter_request(read(0x0, burst=8))
        assert not result.allowed
        assert monitor.count(ViolationType.BURST_TOO_LONG) == 1

    def test_spi_annotation_recorded(self):
        _, firewall = make_firewall(rules=[(0x0, 0x1000, full_access(spi=42))])
        txn = read(0x10)
        firewall.filter_request(txn)
        assert txn.annotations["lf_test.spi"] == 42

    def test_every_denial_charges_sb_latency(self):
        _, firewall = make_firewall(rules=[(0x0, 0x100, full_access())], flood_threshold=1,
                                    flood_window=1000)
        assert firewall.filter_request(read(0x10)).allowed
        flooded = firewall.filter_request(read(0x10))
        firewall.flood_threshold = None
        missed = firewall.filter_request(read(0x5000))
        firewall.quarantined = True
        quarantined = firewall.filter_request(read(0x10))
        for result in (flooded, missed, quarantined):
            assert not result.allowed
            assert result.latency == SECURITY_BUILDER_CYCLES
            assert result.stage == "security_builder"
        assert firewall.firewall_interface.discarded == 3


class TestResponseFiltering:
    def test_read_response_passes_without_extra_latency(self):
        _, firewall = make_firewall(rules=[(0x0, 0x1000, full_access())])
        txn = read(0x10)
        firewall.filter_request(txn)
        response = firewall.filter_response(txn)
        assert response.allowed
        assert response.latency == 0
        # Response checks do not inflate the SB evaluation counters.
        assert firewall.security_builder.evaluations == 1

    def test_response_check_catches_reconfigured_policy(self):
        _, firewall = make_firewall(rules=[(0x0, 0x1000, full_access())])
        txn = read(0x10)
        firewall.filter_request(txn)
        # Policy tightened to write-only while the read was in flight.
        firewall.config_memory.replace_policy(
            0x0, full_access(rwa=ReadWriteAccess.WRITE_ONLY)
        )
        response = firewall.filter_response(txn)
        assert not response.allowed

    def test_write_response_not_rechecked(self):
        _, firewall = make_firewall(rules=[(0x0, 0x1000, full_access())])
        txn = write(0x10)
        firewall.filter_request(txn)
        assert firewall.filter_response(txn).allowed

    def test_read_response_outside_every_rule_is_discarded(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(rules=[], monitor=monitor)
        response = firewall.filter_response(read(0x10))
        assert not response.allowed
        assert response.latency == 0
        assert firewall.firewall_interface.discarded == 1
        assert monitor.count(ViolationType.POLICY_MISS) == 1
        # The response path re-validates without an SB evaluation of its own.
        assert firewall.security_builder.evaluations == 0


class TestQuarantine:
    def test_quarantined_firewall_blocks_everything(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(rules=[(0x0, 0x1000, full_access())], monitor=monitor)
        firewall.quarantined = True
        assert not firewall.filter_request(read(0x10)).allowed
        assert not firewall.filter_request(write(0x10)).allowed
        assert monitor.count() == 2


class TestFloodDetection:
    def test_flood_threshold_triggers_alert_and_block(self):
        monitor = SecurityMonitor()
        sim, firewall = make_firewall(
            rules=[(0x0, 0x1000, full_access())],
            monitor=monitor,
            flood_threshold=5,
            flood_window=1000,
        )
        blocked = 0
        for _ in range(10):
            if not firewall.filter_request(read(0x0)).allowed:
                blocked += 1
        assert blocked > 0
        assert monitor.count(ViolationType.TRAFFIC_FLOOD) > 0

    def test_every_request_above_the_threshold_is_dropped(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(
            rules=[(0x0, 0x1000, full_access())],
            monitor=monitor,
            flood_threshold=3,
            flood_window=1000,
        )
        verdicts = [firewall.filter_request(read(0x0)).allowed for _ in range(6)]
        assert verdicts == [True, True, True, False, False, False]
        assert monitor.count(ViolationType.TRAFFIC_FLOOD) == 3
        assert firewall.firewall_interface.discarded == 3

    def test_no_flood_detection_by_default(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(rules=[(0x0, 0x1000, full_access())], monitor=monitor)
        for _ in range(50):
            assert firewall.filter_request(read(0x0)).allowed
        assert monitor.count(ViolationType.TRAFFIC_FLOOD) == 0


class TestSummary:
    def test_summary_counters(self):
        monitor = SecurityMonitor()
        _, firewall = make_firewall(rules=[(0x0, 0x100, full_access())], monitor=monitor)
        firewall.filter_request(read(0x10))
        firewall.filter_request(read(0x5000))  # miss -> denied
        summary = firewall.summary()
        assert summary["secpol_requests"] == 2
        assert summary["evaluations"] == 2
        assert summary["violations"] == 1
        assert summary["passed"] == 1
        assert summary["discarded"] == 1
        assert summary["alerts"] == 1
        assert summary["rules"] == 1
        assert summary["sb_cycles_charged"] == 2 * SECURITY_BUILDER_CYCLES
