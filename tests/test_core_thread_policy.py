"""Tests for thread-specific security levels (the paper's last perspective)."""

import pytest

from repro.core.alerts import SecurityMonitor, ViolationType
from repro.core.policy import ConfigurationMemory, SecurityPolicy
from repro.core.thread_policy import (
    THREAD_ID_ANNOTATION,
    ThreadAwareLocalFirewall,
    ThreadSecurityDirectory,
)
from repro.scenarios import MasterSpec, ScenarioBuilder, ScenarioSpec, SlaveSpec, TopologySpec
from repro.soc.kernel import Simulator
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus


PUBLIC_BASE = 0x0000
SECRET_BASE = 0x1000
REGION_SIZE = 0x1000


def make_firewall(monitor=None, default_clearance=0):
    sim = Simulator()
    memory = ConfigurationMemory("cfg", capacity=8)
    memory.add(PUBLIC_BASE, REGION_SIZE, SecurityPolicy(spi=1), label="public")
    memory.add(SECRET_BASE, REGION_SIZE, SecurityPolicy(spi=2), label="secret")
    directory = ThreadSecurityDirectory(default_clearance=default_clearance)
    firewall = ThreadAwareLocalFirewall(
        sim, "tlf", memory, directory,
        clearance_requirements={SECRET_BASE: 2},
        write_clearance_requirements={PUBLIC_BASE: 1},
        monitor=monitor,
    )
    return sim, directory, firewall


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


class TestThreadAwareFirewall:
    def test_low_clearance_thread_blocked_from_secret_window(self):
        monitor = SecurityMonitor()
        _, directory, firewall = make_firewall(monitor)
        directory.set_clearance(1, 1)   # thread 1: clearance 1 < required 2
        result = firewall.filter_request(read(SECRET_BASE + 0x10, thread_id=1))
        assert not result.allowed
        assert firewall.thread_denials == 1
        assert monitor.count(ViolationType.UNAUTHORIZED_READ) == 1

    def test_high_clearance_thread_allowed(self):
        _, directory, firewall = make_firewall()
        directory.set_clearance(2, 3)
        txn = read(SECRET_BASE + 0x10, thread_id=2)
        assert firewall.filter_request(txn).allowed
        assert txn.annotations["tlf.clearance"] == 3

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
        _, directory, firewall = make_firewall()
        directory.set_clearance(4, 2)
        assert firewall.filter_request(read(SECRET_BASE, thread_id=4)).allowed
        firewall.require_clearance(SECRET_BASE, 5)
        assert not firewall.filter_request(read(SECRET_BASE, thread_id=4)).allowed

    def test_summary_includes_thread_counters(self):
        _, directory, firewall = make_firewall()
        directory.set_clearance(1, 0)
        firewall.filter_request(read(SECRET_BASE, thread_id=1))
        summary = firewall.summary()
        assert summary["thread_denials"] == 1
        assert summary["clearance_rules"] == 2


class TestThreadTagsOnTheBus:
    def test_processor_propagates_thread_ids_through_the_platform(self):
        spec = ScenarioSpec(
            name="thread_tags",
            description="one CPU and one BRAM on a flat bus",
            topology=TopologySpec(
                masters=(MasterSpec("cpu0"),),
                slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x4000),),
            ),
        )
        system = ScenarioBuilder(spec).build(protected=False).system

        cfg_memory = ConfigurationMemory("cfg", capacity=4)
        cfg_memory.add(PUBLIC_BASE, REGION_SIZE, SecurityPolicy(spi=1))
        cfg_memory.add(SECRET_BASE, REGION_SIZE, SecurityPolicy(spi=2))
        directory = ThreadSecurityDirectory()
        directory.set_clearance(7, 2)
        firewall = ThreadAwareLocalFirewall(
            system.sim, "tlf_cpu0", cfg_memory, directory,
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
