"""Tests for thread-specific security levels (the paper's last perspective)."""

import pytest

from repro.api.events import EventBus, InMemorySink, attach_instrumentation
from repro.core.alerts import SecurityMonitor, ViolationType
from repro.core.checks import default_check_suite
from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ConfigurationMemory, SecurityPolicy
from repro.core.thread_policy import (
    THREAD_ID_ANNOTATION,
    ThreadClearanceCheck,
    ThreadSecurityDirectory,
)
from repro.scenarios import MasterSpec, ScenarioBuilder, ScenarioSpec, SlaveSpec, TopologySpec
from repro.soc.kernel import Simulator
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus


PUBLIC_BASE = 0x0000
SECRET_BASE = 0x1000
REGION_SIZE = 0x1000


def clearance_firewall(sim, memory, directory, name="lf", monitor=None, **requirements):
    """A Local Firewall running the default suite plus a clearance check."""
    clearance = ThreadClearanceCheck(memory, directory, **requirements)
    firewall = LocalFirewall(
        sim, name, memory, monitor=monitor, checks=[*default_check_suite(), clearance]
    )
    return firewall, clearance


def make_firewall(monitor=None, default_clearance=0):
    memory = ConfigurationMemory("cfg", capacity=8)
    memory.add(PUBLIC_BASE, REGION_SIZE, SecurityPolicy(spi=1), label="public")
    memory.add(SECRET_BASE, REGION_SIZE, SecurityPolicy(spi=2), label="secret")
    directory = ThreadSecurityDirectory(default_clearance=default_clearance)
    firewall, clearance = clearance_firewall(
        Simulator(), memory, directory, monitor=monitor,
        clearance_requirements={SECRET_BASE: 2},
        write_clearance_requirements={PUBLIC_BASE: 1},
    )
    return clearance, directory, firewall


def read(address, thread_id=None):
    txn = BusTransaction(master="cpu0", operation=BusOperation.READ, address=address, width=4)
    if thread_id is not None:
        txn.annotations[THREAD_ID_ANNOTATION] = thread_id
    return txn


def write(address, thread_id=None):
    txn = BusTransaction(master="cpu0", operation=BusOperation.WRITE, address=address,
                         width=4, data=bytes(4))
    if thread_id is not None:
        txn.annotations[THREAD_ID_ANNOTATION] = thread_id
    return txn


class TestThreadSecurityDirectory:
    def test_default_and_explicit_clearances(self):
        directory = ThreadSecurityDirectory(default_clearance=1)
        assert directory.clearance(None) == 1
        assert directory.clearance(7) == 1
        directory.set_clearance(7, 3)
        assert directory.clearance(7) == 3
        assert len(directory) == 1

    def test_revoke(self):
        directory = ThreadSecurityDirectory()
        directory.set_clearance(1, 5)
        assert directory.revoke(1)
        assert not directory.revoke(1)
        assert directory.clearance(1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadSecurityDirectory(default_clearance=-1)
        with pytest.raises(ValueError):
            ThreadSecurityDirectory().set_clearance(1, -2)


class TestThreadClearanceCheck:
    def test_low_clearance_thread_blocked_from_secret_window(self):
        monitor = SecurityMonitor()
        clearance, directory, firewall = make_firewall(monitor)
        directory.set_clearance(1, 1)   # thread 1: clearance 1 < required 2
        result = firewall.filter_request(read(SECRET_BASE + 0x10, thread_id=1))
        assert not result.allowed
        assert clearance.denials == 1
        assert monitor.count(ViolationType.UNAUTHORIZED_READ) == 1

    def test_high_clearance_thread_allowed(self):
        clearance, directory, firewall = make_firewall()
        directory.set_clearance(2, 3)
        assert firewall.filter_request(read(SECRET_BASE + 0x10, thread_id=2)).allowed
        assert clearance.denials == 0
        # A verdict that depends on the thread is never memoised by shape.
        assert not firewall.security_builder.cache_enabled

    def test_unknown_thread_gets_default_clearance(self):
        _, _, firewall = make_firewall(default_clearance=0)
        assert not firewall.filter_request(read(SECRET_BASE, thread_id=99)).allowed
        # The public window has no read requirement, so the same thread passes there.
        assert firewall.filter_request(read(PUBLIC_BASE, thread_id=99)).allowed

    def test_untagged_transactions_behave_like_base_firewall(self):
        _, _, firewall = make_firewall(default_clearance=5)
        # Default clearance is high enough: both windows accessible without a tag.
        assert firewall.filter_request(read(SECRET_BASE)).allowed
        assert firewall.filter_request(write(PUBLIC_BASE)).allowed

    def test_write_only_requirement(self):
        _, directory, firewall = make_firewall()
        directory.set_clearance(3, 0)
        # Reads of the public window need no clearance, writes need level 1.
        assert firewall.filter_request(read(PUBLIC_BASE, thread_id=3)).allowed
        denied = firewall.filter_request(write(PUBLIC_BASE, thread_id=3))
        assert not denied.allowed
        directory.set_clearance(3, 1)
        assert firewall.filter_request(write(PUBLIC_BASE, thread_id=3)).allowed

    def test_address_policy_still_checked_first(self):
        _, directory, firewall = make_firewall()
        directory.set_clearance(1, 9)
        # Outside every rule: denied as a policy miss even with high clearance.
        assert not firewall.filter_request(read(0x9000, thread_id=1)).allowed

    def test_runtime_tightening(self):
        clearance, directory, firewall = make_firewall()
        directory.set_clearance(4, 2)
        assert firewall.filter_request(read(SECRET_BASE, thread_id=4)).allowed
        clearance.require_clearance(SECRET_BASE, 5)
        assert not firewall.filter_request(read(SECRET_BASE, thread_id=4)).allowed

    def test_summary_counts_a_denial_as_a_violation(self):
        clearance, directory, firewall = make_firewall()
        directory.set_clearance(1, 0)
        firewall.filter_request(read(SECRET_BASE, thread_id=1))
        summary = firewall.summary()
        assert clearance.denials == summary["violations"] == summary["discarded"] == 1
        assert summary["passed"] == 0


def _thread_platform():
    spec = ScenarioSpec(
        name="thread_tags",
        description="one CPU and one BRAM on a flat bus",
        topology=TopologySpec(
            masters=(MasterSpec("cpu0"),),
            slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x4000),),
        ),
    )
    return ScenarioBuilder(spec).build(protected=False).system


class TestThreadTagsOnTheBus:
    def test_processor_propagates_thread_ids_through_the_platform(self):
        system = _thread_platform()
        cfg_memory = ConfigurationMemory("cfg", capacity=4)
        cfg_memory.add(PUBLIC_BASE, REGION_SIZE, SecurityPolicy(spi=1))
        cfg_memory.add(SECRET_BASE, REGION_SIZE, SecurityPolicy(spi=2))
        directory = ThreadSecurityDirectory()
        directory.set_clearance(7, 2)
        firewall, _ = clearance_firewall(
            system.sim, cfg_memory, directory, name="lf_cpu0",
            clearance_requirements={SECRET_BASE: 2},
        )
        system.master_ports["cpu0"].attach_filter(firewall)

        program = ProcessorProgram([
            MemoryOperation.write(SECRET_BASE + 0x20, b"\x01\x02\x03\x04", thread_id=7),
            MemoryOperation.read(SECRET_BASE + 0x20, thread_id=7),
            MemoryOperation.read(SECRET_BASE + 0x20, thread_id=8),   # unprivileged thread
            MemoryOperation.read(PUBLIC_BASE, thread_id=8),
        ])
        cpu = system.processors["cpu0"]
        cpu.load_program(program)
        cpu.start()
        system.run()

        statuses = [t.status for t in cpu.transactions]
        assert statuses[0] is TransactionStatus.COMPLETED
        assert statuses[1] is TransactionStatus.COMPLETED
        assert cpu.transactions[1].data == b"\x01\x02\x03\x04"
        assert statuses[2] is TransactionStatus.BLOCKED_AT_MASTER
        assert statuses[3] is TransactionStatus.COMPLETED

    def test_denied_read_is_discarded_once_and_traced_as_denied(self):
        system = _thread_platform()
        events = InMemorySink()
        attach_instrumentation(system, bus=EventBus([events]))
        cfg_memory = ConfigurationMemory("cfg", capacity=4)
        cfg_memory.add(SECRET_BASE, REGION_SIZE, SecurityPolicy(spi=2))
        firewall, _ = clearance_firewall(
            system.sim, cfg_memory, ThreadSecurityDirectory(), name="lf_cpu0",
            clearance_requirements={SECRET_BASE: 2},
        )
        system.master_ports["cpu0"].attach_filter(firewall)

        txn = BusTransaction(master="cpu0", operation=BusOperation.READ,
                             address=SECRET_BASE, width=4)
        txn.annotations[THREAD_ID_ANNOTATION] = 8
        system.master_ports["cpu0"].issue(txn, lambda _t: None)
        system.run()

        assert txn.status is TransactionStatus.BLOCKED_AT_MASTER
        interface = firewall.firewall_interface
        assert (interface.passed, interface.discarded) == (0, 1)
        assert [e.data["allowed"] for e in events.of_kind("firewall.decision")] == [False]
