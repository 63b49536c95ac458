"""Tests for the hierarchical interconnect fabric.

Covers fabric wiring, multi-hop routing, bridge forwarding
(posted and non-posted), firewall placement at bridges, the fabric-aware
scenario specs/builder and the per-hop latency attribution.
"""

import pytest

from repro.core.constants import SECURITY_BUILDER_CYCLES
from repro.core.policy import ConfigurationMemory
from repro.core.local_firewall import LocalFirewall
from repro.metrics.latency import aggregate_hop_latency, per_hop_latency, placement_split
from repro.scenarios import (
    BridgeSpec,
    MasterSpec,
    ScenarioBuilder,
    ScenarioSpec,
    SegmentSpec,
    SlaveSpec,
    TopologySpec,
    WindowSpec,
    WorkloadSpec,
    get_scenario,
)
from repro.scenarios.plan import BridgeFirewallPlan, SecurityPlan
from repro.soc.fabric import InterconnectFabric, RoutingError
from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM
from repro.soc.ports import MasterPort, SlavePort
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus


def build_chain_fabric(n_segments=3, posted=False, buffer_depth=4, forward_latency=2):
    """seg0 - br0 - seg1 - br1 - seg2 ... with one BRAM per segment."""
    sim = Simulator()
    fabric = InterconnectFabric(sim)
    for i in range(n_segments):
        fabric.add_segment(f"seg{i}")
    for i in range(n_segments - 1):
        fabric.add_bridge(
            f"br{i}", f"seg{i}", f"seg{i+1}",
            forward_latency=forward_latency, posted_writes=posted, buffer_depth=buffer_depth,
        )
    memories = []
    for i in range(n_segments):
        fabric.add_region(f"bram{i}", 0x1000 * i, 0x1000, slave=f"bram{i}", segment=f"seg{i}")
    fabric.finalize()
    for i in range(n_segments):
        memory = BlockRAM(sim, f"bram{i}", base=0x1000 * i, size=0x1000)
        fabric.connect_slave(SlavePort(sim, f"bram{i}_port", memory), segment=f"seg{i}")
        memories.append(memory)
    port = MasterPort(sim, "cpu0_port")
    fabric.connect_master(port, segment="seg0")
    return sim, fabric, memories, port


def chain_spec(n_segments, cpus_per_segment):
    """A chain of ``n_segments`` with ``cpus_per_segment`` CPUs on each.

    seg0 holds the BRAM, the last segment the DDR, so external traffic
    crosses every bridge; a multi-segment chain guards leaves and bridges
    (``both`` placement).
    """
    hierarchical = n_segments > 1
    masters = tuple(
        MasterSpec(f"cpu{seg}_{idx}", accessible=("bram", "ddr"),
                   segment=f"seg{seg}" if hierarchical else "")
        for seg in range(n_segments)
        for idx in range(cpus_per_segment)
    )
    slaves = (
        SlaveSpec("bram", "bram", base=0x0, size=16 * 1024,
                  segment="seg0" if hierarchical else ""),
        SlaveSpec("ddr", "ddr", base=0x9000_0000, size=32 * 1024,
                  segment=f"seg{n_segments - 1}" if hierarchical else "",
                  windows=(WindowSpec("secure", 1024),)),
    )
    return ScenarioSpec(
        name=f"chain_{n_segments}seg_{cpus_per_segment}cpu",
        description="chain fabric",
        topology=TopologySpec(
            masters=masters,
            slaves=slaves,
            segments=tuple(SegmentSpec(f"seg{i}") for i in range(n_segments))
            if hierarchical else (),
            bridges=tuple(
                BridgeSpec(f"br{i}", f"seg{i}", f"seg{i + 1}", forward_latency=2)
                for i in range(n_segments - 1)
            ),
        ),
        placement="both" if hierarchical else "leaf",
        workload=WorkloadSpec(n_operations=40, external_share=0.4,
                              ip_share_of_internal=0.0, compute_burst_cycles=5, seed=17),
    )


def issue_and_run(sim, port, txn):
    results = []
    port.issue(txn, results.append)
    sim.run()
    assert len(results) == 1
    return results[0]


class TestInterconnectContract:
    def test_fabric_aggregates_names_and_pending(self):
        sim, fabric, _, _ = build_chain_fabric()
        assert fabric.master_names == ["cpu0_port"]
        assert fabric.slave_names == ["bram0", "bram1", "bram2"]
        assert fabric.pending_count() == 0


class TestRouting:
    def test_multi_hop_read_crosses_every_bridge(self):
        sim, fabric, memories, port = build_chain_fabric()
        memories[2].poke(0x2010, b"\xde\xad\xbe\xef")
        read = BusTransaction(master="cpu0", operation=BusOperation.READ, address=0x2010)
        result = issue_and_run(sim, port, read)
        assert result.status is TransactionStatus.COMPLETED
        assert result.data == b"\xde\xad\xbe\xef"
        hops = per_hop_latency(result)
        assert set(hops) == {"bus:seg0", "bridge:br0", "bus:seg1", "bridge:br1", "bus:seg2"}

    def test_local_access_stays_on_segment(self):
        sim, fabric, _, port = build_chain_fabric()
        write = BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                               address=0x10, data=b"\x01\x02\x03\x04")
        result = issue_and_run(sim, port, write)
        assert result.status is TransactionStatus.COMPLETED
        assert set(per_hop_latency(result)) == {"bus:seg0"}
        assert fabric.segments["seg1"].monitor.count() == 0

    def test_router_paths_and_memoisation(self):
        _, fabric, _, _ = build_chain_fabric()
        path = fabric.router.path("seg0", "seg2")
        assert path == ("br0", "br1")
        assert fabric.router.path("seg0", "seg2") is path  # table filled by rebuild()
        assert fabric.router.path("seg2", "seg2") == ()
        assert fabric.router.path("seg2", "seg0") == ("br1", "br0")
        # Each segment decodes a remote region to its next-hop bridge.
        assert fabric.segments["seg0"].address_map.decode(0x2000).slave == "bridge:br0"
        assert fabric.segments["seg1"].address_map.decode(0x2000).slave == "bridge:br1"
        assert fabric.segments["seg2"].address_map.decode(0x2000).slave == "bram2"

    def test_router_raises_for_unknown_destination(self):
        _, fabric, _, _ = build_chain_fabric()
        with pytest.raises(RoutingError):
            fabric.router.path("seg0", "nowhere")

    def test_fabric_monitor_counts_hop_observations(self):
        sim, fabric, _, port = build_chain_fabric()
        read = BusTransaction(master="cpu0", operation=BusOperation.READ, address=0x2000)
        issue_and_run(sim, port, read)
        # One transaction, observed once per segment crossed.
        assert fabric.monitor.count() == 3
        assert fabric.monitor.per_master == {"cpu0": 3}
        assert fabric.monitor.per_slave["bridge:br0"] == 1
        assert fabric.monitor.per_slave["bram2"] == 1

    def test_finalize_names_latency_stages_by_segment_count(self):
        """One segment keeps the flat bus's ``"bus"`` stage; several charge
        ``"bus:<segment>"`` each so per-hop latency can be attributed."""
        single = InterconnectFabric(Simulator())
        single.add_segment("seg0")
        single.finalize()
        assert single.segments["seg0"].latency_stage == "bus"
        _, chain, _, _ = build_chain_fabric(n_segments=2)
        assert [s.latency_stage for s in chain.segments.values()] == ["bus:seg0", "bus:seg1"]

    def test_finalize_is_single_shot_and_guards_mutation(self):
        sim = Simulator()
        fabric = InterconnectFabric(sim)
        fabric.add_segment("seg0")
        fabric.finalize()
        with pytest.raises(RuntimeError):
            fabric.finalize()
        with pytest.raises(RuntimeError):
            fabric.add_segment("seg1")
        with pytest.raises(RuntimeError):
            fabric.add_region("r", 0, 16, slave="r")


class TestPostedWrites:
    def test_posted_write_acks_before_downstream_lands(self):
        sim, fabric, memories, port = build_chain_fabric(n_segments=2, posted=True)
        write = BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                               address=0x1010, data=b"\xaa\xbb\xcc\xdd")
        done_at = []
        port.issue(write, lambda t: done_at.append((sim.now, bytes(memories[1].peek(0x1010, 4)))))
        sim.run()
        ack_cycle, memory_at_ack = done_at[0]
        assert write.status is TransactionStatus.COMPLETED
        # At ack time the downstream leg had not landed yet...
        assert memory_at_ack == b"\x00\x00\x00\x00"
        # ...but it eventually does.
        assert memories[1].peek(0x1010, 4) == b"\xaa\xbb\xcc\xdd"
        bridge = fabric.bridges["br0"]
        assert bridge.stats["posted_writes"] == 1
        assert bridge.stats["posted_completed"] == 1
        assert not bridge._buffer

    def test_full_buffer_falls_back_to_non_posted(self):
        # A slow bridge (forward_latency=10) with a 1-deep buffer: the head
        # write is still in flight when the next one arrives, forcing the
        # non-posted fallback that back-pressures the issuing segment.
        sim, fabric, memories, port = build_chain_fabric(
            n_segments=2, posted=True, buffer_depth=1, forward_latency=10
        )
        for index in range(4):
            txn = BusTransaction(
                master="cpu0", operation=BusOperation.WRITE,
                address=0x1000 + 4 * index, data=bytes([index]) * 4,
            )
            port.issue(txn, lambda t: None)
        sim.run()
        bridge = fabric.bridges["br0"]
        assert bridge.stats.get("posted_stalls", 0) > 0
        assert bridge.stats["posted_writes"] >= 1
        for index in range(4):
            assert memories[1].peek(0x1000 + 4 * index, 4) == bytes([index]) * 4

    def test_read_after_posted_write_observes_the_write(self):
        """RAW ordering: a read must not overtake posted writes still queued
        in the bridge buffer (regression: the read used to forward
        immediately and return stale data)."""
        sim, fabric, memories, port = build_chain_fabric(
            n_segments=2, posted=True, buffer_depth=4, forward_latency=10
        )
        outcomes = []
        port.issue(BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                                  address=0x1010, data=b"\x11" * 4), outcomes.append)
        port.issue(BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                                  address=0x1010, data=b"\x22" * 4), outcomes.append)
        port.issue(BusTransaction(master="cpu0", operation=BusOperation.READ,
                                  address=0x1010), outcomes.append)
        sim.run()
        assert [t.status for t in outcomes] == [TransactionStatus.COMPLETED] * 3
        assert outcomes[2].data == b"\x22" * 4, "read must see the last posted write"
        assert fabric.bridges["br0"].stats["ordered_behind_posted"] >= 1

    def test_reads_are_never_posted(self):
        sim, fabric, memories, port = build_chain_fabric(n_segments=2, posted=True)
        memories[1].poke(0x1000, b"\x11\x22\x33\x44")
        read = BusTransaction(master="cpu0", operation=BusOperation.READ, address=0x1000)
        result = issue_and_run(sim, port, read)
        assert result.data == b"\x11\x22\x33\x44"
        assert "posted_writes" not in fabric.bridges["br0"].stats


class TestBridgeFirewallPlacement:
    def _bridge_firewall(self, sim, fabric, rules):
        memory = ConfigurationMemory("cfg_br0", capacity=8)
        for base, size, policy in rules:
            memory.add(base, size, policy)
        firewall = LocalFirewall(sim, "lf_br0", memory, protected_ip="br0")
        fabric.bridges["br0"].attach_filter(firewall)
        return firewall

    def test_unruled_remote_region_is_denied_at_bridge(self):
        sim, fabric, memories, port = build_chain_fabric(n_segments=2)
        firewall = self._bridge_firewall(sim, fabric, [])  # no rules: default deny
        write = BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                               address=0x1010, data=b"\xff" * 4)
        result = issue_and_run(sim, port, write)
        assert result.status is TransactionStatus.BLOCKED_AT_BRIDGE
        assert memories[1].peek(0x1010, 4) == b"\x00" * 4
        assert firewall.security_builder.violations == 1

    def test_intra_segment_traffic_is_unchecked_by_bridge_firewall(self):
        sim, fabric, memories, port = build_chain_fabric(n_segments=2)
        firewall = self._bridge_firewall(sim, fabric, [])
        write = BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                               address=0x10, data=b"\x01\x02\x03\x04")
        result = issue_and_run(sim, port, write)
        assert result.status is TransactionStatus.COMPLETED
        assert firewall.security_builder.evaluations == 0

    def test_attach_security_rejects_bridge_plan_on_flat_bus(self):
        from repro.core.secure import attach_security
        from tests.conftest import build_figure1

        system, _ = build_figure1(protected=False)
        plan = SecurityPlan(bridges=[BridgeFirewallPlan("br0", [])], placement="bridge")
        with pytest.raises(ValueError, match=r"unknown bridge 'br0'; known: \[\]"):
            attach_security(system, plan)

    def test_security_plan_validates_placement(self):
        with pytest.raises(ValueError, match="placement"):
            SecurityPlan(placement="everywhere")


class TestFabricSpecs:
    def _two_segment_topology(self, **overrides):
        fields = dict(
            masters=(
                MasterSpec("cpu0", segment="seg0"),
                MasterSpec("dma", kind="dma", segment="seg1"),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x1000, segment="seg0"),
                SlaveSpec("ddr", "ddr", base=0x9000_0000, size=0x8000, segment="seg1"),
            ),
            segments=(SegmentSpec("seg0"), SegmentSpec("seg1")),
            bridges=(BridgeSpec("br0", "seg0", "seg1"),),
        )
        fields.update(overrides)
        return TopologySpec(**fields)

    def test_valid_fabric_topology(self):
        topology = self._two_segment_topology()
        topology.validate()
        assert topology.hierarchical
        assert topology.segment_of(topology.masters[0]) == "seg0"

    def test_flat_topology_rejects_segment_references(self):
        topology = self._two_segment_topology(segments=(), bridges=())
        with pytest.raises(ValueError, match="declares no segments"):
            topology.validate()

    def test_unknown_segment_is_rejected(self):
        topology = self._two_segment_topology(
            masters=(MasterSpec("cpu0", segment="nope"),
                     MasterSpec("dma", kind="dma", segment="seg1")),
        )
        with pytest.raises(ValueError, match="unknown segment"):
            topology.validate()

    def test_disconnected_segments_are_rejected(self):
        topology = self._two_segment_topology(bridges=())
        with pytest.raises(ValueError, match="not connected"):
            topology.validate()

    def test_bridges_without_segments_are_rejected(self):
        topology = self._two_segment_topology(segments=())
        with pytest.raises(ValueError, match="bridges need segments"):
            topology.validate()

    def test_bridge_deny_must_name_known_slaves(self):
        topology = self._two_segment_topology(
            bridges=(BridgeSpec("br0", "seg0", "seg1", deny=("ghost",)),),
        )
        with pytest.raises(ValueError, match="denies unknown slave"):
            topology.validate()

    def test_bridge_placement_requires_bridges(self):
        spec = ScenarioSpec(
            name="x", description="", placement="bridge",
            topology=TopologySpec(
                masters=(MasterSpec("cpu0"),),
                slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x1000),),
            ),
        )
        with pytest.raises(ValueError, match="needs a topology with bridges"):
            spec.validate()

    def test_reconfig_may_target_bridge_firewall(self):
        from repro.scenarios.spec import ReconfigSpec

        topology = self._two_segment_topology()
        spec = ScenarioSpec(
            name="x", description="", topology=topology, placement="both",
            reconfigs=(ReconfigSpec(at_cycle=10, firewall="lf_br0", rule_base=0x0),),
        )
        spec.validate()


class TestFabricScenarios:
    def test_bridge_placement_builds_only_bridge_firewalls(self):
        built = ScenarioBuilder(get_scenario("bridge_firewalled_centralized")).build(True)
        assert list(built.security.bridge_firewalls) == ["br_sec"]
        assert built.security.master_firewalls == {}
        assert built.security.slave_firewalls == {}
        assert list(built.security.ciphering_firewalls) == ["ddr"]

    def test_both_placement_builds_leaf_and_bridge_firewalls(self):
        built = ScenarioBuilder(get_scenario("deep_hierarchy_3seg")).build(True)
        assert set(built.security.bridge_firewalls) == {"br01", "br12"}
        assert set(built.security.master_firewalls) == {"cpu0", "cpu1", "dma"}

    def test_flat_platform_is_a_one_segment_fabric(self):
        built = ScenarioBuilder(get_scenario("paper_baseline")).build(False)
        description = built.system.describe_topology()
        assert description["bus"] == "system_bus"
        assert list(description["fabric"]["segments"]) == ["system_bus"]
        assert description["fabric"]["bridges"] == {}
        assert built.system.bus.segment().slave_names == ["bram", "ip0", "ddr"]

    def test_describe_topology_carries_fabric_structure(self):
        built = ScenarioBuilder(get_scenario("two_segment_dma_isolation")).build(False)
        description = built.system.describe_topology()
        assert set(description["fabric"]["segments"]) == {"seg_cpu", "seg_io"}
        assert "br_io" in description["fabric"]["bridges"]

    @pytest.mark.parametrize(
        "spec",
        [get_scenario("deep_hierarchy_3seg")]
        + [
            chain_spec(n_segments, cpus_per_segment)
            for n_segments, cpus_per_segment in (
                (1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2),
            )
        ],
        ids=lambda spec: spec.name,
    )
    def test_placement_split_accounts_bridge_cycles(self, spec):
        built = ScenarioBuilder(spec).build(True)
        built.run_workload()
        assert built.system.all_done()
        rows = {row.placement: row for row in placement_split(built.security)}
        assert rows["leaf_master"].evaluations > 0
        if spec.topology.bridges:
            hops = aggregate_hop_latency(built.system.bus.monitor.history)
            assert sum(c for stage, c in hops.items() if stage.startswith("bridge:")) > 0
            assert rows["bridge"].evaluations > 0
        # Bridge SBs charge the Table-II latency per evaluation, as the leaves do.
        for placement in ("bridge", "leaf_master"):
            assert rows[placement].cycles == SECURITY_BUILDER_CYCLES * rows[placement].evaluations

    def test_aggregate_hop_latency_splits_segments_and_bridges(self):
        built = ScenarioBuilder(get_scenario("deep_hierarchy_3seg")).build(False)
        built.run_workload()
        txns = built.system.bus.monitor.history
        totals = aggregate_hop_latency(txns)
        assert totals.get("bridge:br01", 0) > 0
        assert totals.get("bus:seg0", 0) > 0
        assert totals.get("bus:seg2", 0) > 0

    def test_aggregate_hop_latency_counts_each_transaction_once(self):
        """The fabric monitor observes a transaction once per hop; the
        aggregate must not multiply a multi-hop path by its hop count."""
        sim, fabric, _, port = build_chain_fabric(n_segments=3)
        read = BusTransaction(master="cpu0", operation=BusOperation.READ, address=0x2000)
        issue_and_run(sim, port, read)
        history = fabric.monitor.history
        assert len(history) == 3  # three hop observations of one transaction
        totals = aggregate_hop_latency(history)
        assert totals == per_hop_latency(read), (
            "duplicated hop observations must be deduplicated"
        )

    def test_single_segment_fabric_matches_flat_bus_results(self):
        """A declared one-segment fabric behaves exactly like the flat bus,
        down to the ``"bus"`` latency stage."""
        def run(topology_kwargs):
            spec = ScenarioSpec(
                name="flat_vs_fabric", description="",
                topology=TopologySpec(
                    masters=(MasterSpec("cpu0"),),
                    slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x1000),),
                    **topology_kwargs,
                ),
            )
            built = ScenarioBuilder(spec).build(True)
            sim = built.system.sim
            port = built.system.master_ports["cpu0"]
            results = []
            for index in range(8):
                txn = BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                                     address=4 * index, data=bytes([index]) * 4)
                port.issue(txn, results.append)
            sim.run()
            return [
                (t.status, t.completed_at - t.issued_at, t.data, t.latency_breakdown)
                for t in results
            ]

        flat = run({})
        fabric = run({"segments": (SegmentSpec("seg0"),)})
        assert flat == fabric


class TestFabricIntrospection:
    def test_bridge_endpoint_and_segment_lookups(self):
        _, fabric, _, _ = build_chain_fabric(n_segments=2)
        bridge = fabric.bridges["br0"]
        assert fabric.segments["seg0"].slave_port("bridge:br0") is bridge.endpoint_a
        assert fabric.segments["seg1"].slave_port("bridge:br0") is bridge.endpoint_b
        assert bridge.segment_names == ("seg0", "seg1")
        assert bridge.summary()["segments"] == ["seg0", "seg1"]

    def test_fabric_lookup_errors_and_accessors(self):
        sim, fabric, _, _ = build_chain_fabric(n_segments=2)
        with pytest.raises(KeyError, match="no segment"):
            fabric.segment("ghost")
        assert fabric.segments["seg0"].slave_port("bram0") is not None
        assert fabric.segments["seg0"].slave_port("ghost") is None
        empty = InterconnectFabric(Simulator())
        with pytest.raises(RuntimeError, match="no segments"):
            empty.segment()

    def test_fabric_monitor_observes_every_hop(self):
        sim, fabric, _, port = build_chain_fabric(n_segments=2)
        read = BusTransaction(master="cpu0", operation=BusOperation.READ, address=0x1000)
        issue_and_run(sim, port, read)
        assert fabric.monitor.history == [read, read]  # one hop observation per segment
        assert fabric.monitor.per_master == {"cpu0": 2}

    def test_bridge_parameter_validation(self):
        sim = Simulator()
        fabric = InterconnectFabric(sim)
        fabric.add_segment("seg0")
        fabric.add_segment("seg1")
        with pytest.raises(ValueError, match="distinct segments"):
            fabric.add_bridge("brX", "seg0", "seg0")
        from repro.soc.fabric import BusBridge
        with pytest.raises(ValueError, match="forward_latency"):
            BusBridge(sim, "brY", fabric.segments["seg0"], fabric.segments["seg1"],
                      forward_latency=-1)
        with pytest.raises(ValueError, match="buffer_depth"):
            BusBridge(sim, "brZ", fabric.segments["seg0"], fabric.segments["seg1"],
                      buffer_depth=0)

    def test_duplicate_segment_bridge_region_names_rejected(self):
        sim = Simulator()
        fabric = InterconnectFabric(sim)
        fabric.add_segment("seg0")
        with pytest.raises(ValueError, match="already exists"):
            fabric.add_segment("seg0")
        fabric.add_segment("seg1")
        fabric.add_bridge("br0", "seg0", "seg1")
        with pytest.raises(ValueError, match="already exists"):
            fabric.add_bridge("br0", "seg0", "seg1")


class TestCrossSegmentAttackSurface:
    def test_a_master_port_can_inject_on_a_chosen_segment(self):
        sim, fabric, memories, _ = build_chain_fabric(n_segments=2)
        port = MasterPort(sim, "attacker_port")
        fabric.connect_master(port, segment="seg1")
        done = []
        port.issue(BusTransaction("attacker", BusOperation.READ, 0x1000), done.append)
        sim.run()
        assert [txn.status for txn in done] == [TransactionStatus.COMPLETED]
        # The injection point lives on seg1: its local access never touches seg0.
        assert fabric.segments["seg1"].monitor.per_master.get("attacker") == 1
        assert "attacker" not in fabric.segments["seg0"].monitor.per_master

    def test_dos_flood_counts_distinct_transactions_across_hops(self):
        """A cross-segment flood is observed once per hop by the fabric
        monitor; the attack must score distinct transactions (regression:
        reached_bus used to double per bridge crossed)."""
        from repro.attacks.dos import DoSFloodAttack

        built = ScenarioBuilder(get_scenario("two_segment_dma_isolation")).build(False)
        result = DoSFloodAttack(hijacked_master="dma", n_requests=20).run(built.system, None)
        assert result.extra["reached_bus"] == 20
