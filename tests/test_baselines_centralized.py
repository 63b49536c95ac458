"""Tests for the centralised (SECA-style) baseline and its comparison with
the paper's distributed firewalls."""


from repro.baselines.centralized import CentralizedSecurityModule, secure_platform_centralized
from repro.core.alerts import ViolationType
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus

from tests.conftest import build_figure1


def issue(system, master, txn):
    system.master_ports[master].issue(txn, lambda t: None)
    system.run()
    return txn


def malformed_ip_write(master="cpu1"):
    # Byte-wide write into the IP register file: violates the ADF rule in
    # both architectures.
    return lambda cfg: BusTransaction(
        master=master, operation=BusOperation.WRITE, address=cfg.ip_regs_base,
        width=1, burst_length=1, data=b"\xff",
    )


class TestCentralizedModule:
    def test_legitimate_traffic_allowed(self, plain_platform):
        system = plain_platform
        baseline = secure_platform_centralized(system)
        cfg = system.config
        txn = issue(system, "cpu0", BusTransaction(
            master="cpu0", operation=BusOperation.WRITE, address=cfg.bram_base + 0x40,
            width=4, data=b"\x01\x02\x03\x04"))
        assert txn.status is TransactionStatus.COMPLETED
        assert baseline.monitor.count() == 0
        assert baseline.module.evaluations >= 1

    def test_violation_detected_but_only_at_the_slave_side(self, plain_platform):
        system = plain_platform
        baseline = secure_platform_centralized(system)
        txn = issue(system, "cpu1", malformed_ip_write()(system.config))
        assert txn.status is TransactionStatus.BLOCKED_AT_SLAVE
        assert baseline.monitor.count(ViolationType.BAD_DATA_FORMAT) == 1
        # Centralisation's weakness: the malicious transaction did occupy the bus.
        assert "cpu1" in system.bus.monitor.per_master

    def test_concurrent_masters_all_get_checked(self, plain_platform):
        system = plain_platform
        baseline = secure_platform_centralized(system)
        cfg = system.config
        # Three masters issue simultaneously; every access goes through the SEM.
        for master in ("cpu0", "cpu1", "cpu2"):
            txn = BusTransaction(master=master, operation=BusOperation.READ,
                                 address=cfg.bram_base, width=4)
            system.master_ports[master].issue(txn, lambda t: None)
        system.run()
        assert baseline.module.evaluations == 3
        # The single shared bus already serialises the requests, so the SEM
        # sees them back to back; its queueing accounting stays consistent.
        assert baseline.module.average_queue_delay() >= 0.0
        assert baseline.module.total_queue_cycles == sum(
            [baseline.module.stats.get("queue_cycles", 0)]
        )

    def test_sem_queueing_when_checks_overlap(self):
        """Directly exercise the SEM's single-port serialisation (the bus
        serialises traffic in the Figure-1 platform, so this drives the
        module standalone as a pipelined interconnect would)."""
        from repro.core.constants import SECURITY_BUILDER_CYCLES
        from repro.core.policy import ConfigurationMemory, SecurityPolicy
        from repro.soc.kernel import Simulator

        sim = Simulator()
        rules = ConfigurationMemory("cfg", capacity=4)
        rules.add(0x0, 0x1000, SecurityPolicy(spi=1))
        sem = CentralizedSecurityModule(sim, "sem", rules)
        txn = BusTransaction(master="a", operation=BusOperation.READ, address=0x0)
        allowed_1, latency_1, _ = sem.evaluate(txn)
        allowed_2, latency_2, _ = sem.evaluate(txn)
        assert allowed_1 and allowed_2
        assert latency_1 == SECURITY_BUILDER_CYCLES
        # The second evaluation arrives while the first still occupies the
        # module, so it pays the queueing delay on top of the check.
        assert latency_2 == 2 * SECURITY_BUILDER_CYCLES
        assert sem.stats["queued_evaluations"] == 1

    def test_summary_and_area_estimate(self, plain_platform):
        system = plain_platform
        baseline = secure_platform_centralized(system)
        issue(system, "cpu1", malformed_ip_write()(system.config))
        summary = baseline.summary()
        assert summary["evaluations"] >= 1 and summary["violations"] == 1
        area = baseline.estimated_area()
        # One central checker costs less than six distributed ones plus an LCF.
        from repro.metrics.area import AreaModel

        distributed = AreaModel().platform_with_firewalls(n_local_firewalls=6)
        assert area.slice_luts < distributed.slice_luts


class TestDistributedVsCentralized:
    def test_containment_difference(self):
        """Same attack, same detection -- but only the distributed design keeps
        the malicious transaction off the shared bus."""
        cfg_factory = malformed_ip_write()

        distributed_system, _ = build_figure1()
        d_txn = issue(distributed_system, "cpu1", cfg_factory(distributed_system.config))

        centralized_system, _ = build_figure1(protected=False)
        secure_platform_centralized(centralized_system)
        c_txn = issue(centralized_system, "cpu1", cfg_factory(centralized_system.config))

        assert d_txn.status is TransactionStatus.BLOCKED_AT_MASTER
        assert c_txn.status is TransactionStatus.BLOCKED_AT_SLAVE
        assert "cpu1" not in distributed_system.bus.monitor.per_master
        assert "cpu1" in centralized_system.bus.monitor.per_master

    def test_flood_reaches_bus_only_in_centralized_design(self):
        from repro.attacks import DoSFloodAttack

        distributed_system, d_security = build_figure1(flood_threshold=10)
        d_result = DoSFloodAttack(n_requests=60).run(distributed_system, d_security)

        centralized_system, _ = build_figure1(protected=False)
        secure_platform_centralized(centralized_system)
        c_before = centralized_system.bus.monitor.count()
        DoSFloodAttack(n_requests=60).run(centralized_system, None)
        c_reached = centralized_system.bus.monitor.count() - c_before

        assert d_result.extra["reached_bus"] < 60          # throttled at the source
        assert c_reached == 60                              # all of it hit the bus
        assert d_result.extra["reached_bus"] < c_reached
