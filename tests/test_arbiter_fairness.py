"""Seeded fairness tests for the arbiters under dynamic master registration.

The round-robin guarantee is: no master is served twice while another master
has a request pending the whole time — and that must keep holding when
masters register mid-simulation (the bus creates arbitration queues lazily on
first submission, so ``add_master`` runs while grants are already flowing).
"""

import random
from collections import deque

from repro.soc.address_map import AddressMap
from repro.soc.fabric import BusSegment, FixedPriorityArbiter, RoundRobinArbiter
from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM
from repro.soc.ports import MasterPort, SlavePort
from repro.soc.transaction import BusOperation, BusTransaction


def assert_no_double_service(grants, pending_between):
    """No master may be granted twice while another waited through both
    grants without being served in between.

    ``pending_between(master, i, j)`` reports whether ``master`` had a
    request pending continuously between grant i and grant j.
    """
    last_seen = {}
    for index, winner in enumerate(grants):
        if winner in last_seen:
            start = last_seen[winner]
            for other in set(grants):
                if other == winner or other in grants[start + 1:index]:
                    continue
                assert not pending_between(other, start, index), (
                    f"{winner} served twice (grants {start} and {index}) "
                    f"while {other} was continuously waiting and never served"
                )
        last_seen[winner] = index


class TestRoundRobinArbiterUnit:
    def test_seeded_random_pattern_never_starves(self):
        rng = random.Random(0xFA1C)
        arbiter = RoundRobinArbiter()
        waiting = {}
        # Pending snapshots before each grant, for the fairness oracle.
        pending_log = []
        grants = []
        masters = []

        for step in range(600):
            # Dynamic registration: a new master appears every 60 steps.
            if step % 60 == 0 and len(masters) < 8:
                name = f"m{len(masters)}"
                masters.append(name)
                arbiter.add_master(name)
                waiting.setdefault(name, deque())
            for name in masters:
                if rng.random() < 0.5:
                    waiting[name].append(object())
            pending_log.append({name for name in masters if waiting[name]})
            winner = arbiter.select(waiting)
            if winner is None:
                grants.append(None)
                continue
            assert waiting[winner], "arbiter granted a master with no request"
            waiting[winner].popleft()
            grants.append(winner)

        def pending_between(master, i, j):
            return all(master in pending_log[k] for k in range(i, j + 1))

        indexed = [(k, g) for k, g in enumerate(grants) if g is not None]
        compact = [g for _, g in indexed]
        positions = [k for k, _ in indexed]

        def compact_pending_between(master, i, j):
            return pending_between(master, positions[i], positions[j])

        assert len(set(compact)) == 8, "every master must eventually be served"
        assert_no_double_service(compact, compact_pending_between)

    def test_rotation_covers_all_masters_each_round_after_late_join(self):
        arbiter = RoundRobinArbiter()
        waiting = {}
        for name in ("m0", "m1", "m2"):
            arbiter.add_master(name)
            waiting[name] = deque(object() for _ in range(10))

        grants = [arbiter.select(waiting) for _ in range(3)]
        for winner in grants:
            waiting[winner].popleft()
        assert sorted(grants) == ["m0", "m1", "m2"]

        # m3 joins mid-stream with a full queue: the very next full rotation
        # must include it exactly once.
        arbiter.add_master("m3")
        waiting["m3"] = deque(object() for _ in range(10))
        rotation = []
        for _ in range(4):
            winner = arbiter.select(waiting)
            waiting[winner].popleft()
            rotation.append(winner)
        assert sorted(rotation) == ["m0", "m1", "m2", "m3"]

    def test_fixed_priority_respects_registration_order_after_dynamic_add(self):
        arbiter = FixedPriorityArbiter(["hi", "mid"])
        waiting = {"hi": deque(), "mid": deque([object()]), "lo": deque([object()])}
        arbiter.add_master("lo")  # dynamic registration appends at lowest priority
        assert arbiter.select(waiting) == "mid"
        waiting["hi"].append(object())
        assert arbiter.select(waiting) == "hi"
        waiting["hi"].clear()
        waiting["mid"].clear()
        assert arbiter.select(waiting) == "lo"


class TestBusLevelFairness:
    def _platform(self, arbiter):
        sim = Simulator()
        amap = AddressMap()
        amap.add_region("mem", 0x0, 0x10000, slave="mem")
        bus = BusSegment(sim, "system_bus", address_map=amap, arbiter=arbiter)
        memory = BlockRAM(sim, "mem", base=0x0, size=0x10000, read_latency=3)
        bus.connect_slave(SlavePort(sim, "mem_port", memory))
        return sim, bus

    def test_mid_simulation_add_master_is_fair_on_a_live_bus(self):
        rng = random.Random(0x5EED)
        sim, bus = self._platform(RoundRobinArbiter())
        ports = {}
        grant_order = []

        def issue(master, when):
            def fire():
                txn = BusTransaction(master=master, operation=BusOperation.READ,
                                     address=rng.randrange(0, 0x100) * 4)
                ports[master].issue(txn, lambda t: grant_order.append((master, t.granted_at)))
            sim.schedule_at(when, fire)

        # Two masters hammer the bus from cycle 0...
        for master in ("cpu0", "cpu1"):
            ports[master] = MasterPort(sim, f"{master}_port")
            bus.connect_master(ports[master])
            for index in range(30):
                issue(master, index)
        # ...and a third one registers (first submission) at cycle 40.
        ports["late"] = MasterPort(sim, "late_port")
        bus.connect_master(ports["late"])
        for index in range(30):
            issue("late", 40 + index)
        sim.run()

        assert len(grant_order) == 90
        # After the late master's first grant, contiguous grant windows of
        # size 3 must contain each backlogged master exactly once: nobody is
        # served twice while the others wait.
        first_late = next(i for i, (m, _) in enumerate(grant_order) if m == "late")
        saturated = [m for m, _ in grant_order[first_late:first_late + 45]]
        for start in range(0, len(saturated) - 3, 3):
            window = saturated[start:start + 3]
            assert sorted(window) == ["cpu0", "cpu1", "late"], (
                f"unfair window {window} at offset {start}"
            )

    def test_fixed_priority_starves_lowest_until_higher_goes_idle(self):
        sim, bus = self._platform(FixedPriorityArbiter())
        completions = []
        ports = {}
        for master, count in (("hog", 20), ("meek", 5)):
            ports[master] = MasterPort(sim, f"{master}_port")
            bus.connect_master(ports[master])
        for master, count in (("hog", 20), ("meek", 5)):
            for index in range(count):
                txn = BusTransaction(master=master, operation=BusOperation.READ,
                                     address=4 * index)
                ports[master].issue(txn, lambda t, m=master: completions.append(m))
        sim.run()
        # Strict priority: every hog access completes before any meek one.
        assert completions == ["hog"] * 20 + ["meek"] * 5
