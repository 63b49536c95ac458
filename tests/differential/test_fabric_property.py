"""Fabric property tests: cross-bridge reconfigurations and the posted-write
buffer, on cached builds against the reference path.

Two hazards are unique to bridged-segment fabrics:

* a mid-stream reconfiguration can land while cross-bridge transactions are
  split across both segments' arbitration queues and the bridge FIFO — the
  decision memos must invalidate at the exact cycle on *every* hop the
  stream crosses (master, bridge, remote slave), or the tail of the stream
  is judged by stale rules on one hop;
* the bounded posted-write buffer changes *scheduling shape* under load:
  writes that miss the buffer fall back to non-posted forwarding (stalling
  the issuer), later transactions queue behind pending posted clones, and a
  clone denied downstream after its ack surfaces as a posted-write failure.

Both must leave exactly the observables of a build with every cache off
(:func:`repro.scenarios.reference_mode`).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Tuple

import pytest

from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ConfigurationMemory, ReadWriteAccess, SecurityPolicy
from repro.scenarios import reference_mode, registry
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.differential import _variant_fingerprint, diff_fingerprints
from repro.scenarios.spec import ReconfigSpec
from repro.soc.fabric import InterconnectFabric
from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.system import SoCConfig, SoCSystem
from repro.soc.transaction import TransactionStatus

_BRAM_BASE = 0x0000_0000
_DDR_BASE = 0x9000_0000


def _randomized_fabric_spec(seed: int):
    """two_segment_dma_isolation with shuffled workload and reconfig draws.

    Both reconfigured rules cover *cross-bridge* regions: ``lf_cpu1`` guards
    cpu1 (seg_cpu) whose DDR accesses cross the posted bridge, and ``lf_dma``
    guards the DMA (seg_io) whose BRAM accesses cross it the other way.
    """
    rng = random.Random(0xFAB ^ (seed * 6151))
    base = registry.get_scenario("two_segment_dma_isolation")
    workload = replace(
        base.workload,
        n_operations=rng.choice([25, 40, 80, 120]),
        external_share=rng.choice([0.3, 0.5, 0.8]),
        write_fraction=rng.choice([0.3, 0.5, 0.7]),
        compute_burst_cycles=rng.choice([0, 4, 9]),
        seed=rng.randrange(1, 10_000),
        stagger=rng.choice([1, 3, 7]),
        # Small working sets revisit addresses, so memoised verdicts from
        # before a swap are looked up again after it.
        internal_working_set=rng.choice([64, 256, 2048]),
        external_working_set=rng.choice([64, 256, 2048]),
    )
    reconfigs = (
        ReconfigSpec(
            at_cycle=rng.randrange(1, 5000), firewall="lf_cpu1",
            rule_base=_DDR_BASE,
            action=rng.choice(["make_readonly", "remove_rule"]),
        ),
        ReconfigSpec(
            at_cycle=rng.randrange(1, 5000), firewall="lf_dma",
            rule_base=_BRAM_BASE,
            action=rng.choice(["make_readonly", "remove_rule"]),
        ),
    )
    return replace(base, workload=workload, reconfigs=reconfigs)


def _run(spec):
    built = ScenarioBuilder(spec).build(True)
    final = built.run_workload()
    hits = sum(fw.security_builder.cache_hits for fw in built.security.all_firewalls)
    return _variant_fingerprint(built, final), hits


@pytest.mark.parametrize("seed", range(8))
def test_cross_bridge_reconfiguration_interleaving_matches_reference_path(seed):
    spec = _randomized_fabric_spec(seed)
    fp_cached, hits = _run(spec)
    with reference_mode():
        fp_reference, reference_hits = _run(spec)

    assert hits > 0 and reference_hits == 0

    assert fp_cached["alerts"] == fp_reference["alerts"]
    diffs = diff_fingerprints(fp_cached, fp_reference)
    assert not diffs, (
        f"seed {seed} diverged (reconfigs at "
        f"{[e.at_cycle for e in spec.reconfigs]}):\n  " + "\n  ".join(diffs)
    )


# ---------------------------------------------------------------------------
# Posted-write buffer overflow
# ---------------------------------------------------------------------------

_REMOTE_BASE = 0x1000
_RO_BASE = 0x1800  # read-only window on the remote BRAM: writes die downstream


def _posted_overflow_platform() -> Tuple[SoCSystem, LocalFirewall]:
    """One CPU behind a depth-1 posted bridge, remote BRAM half read-only;
    returns the platform and the remote BRAM's firewall.

    Buffer depth 1 with a slow downstream leg forces every posted shape:
    posted admissions, posted stalls (non-posted fallback), reads ordered
    behind pending clones, and clones denied *after* their ack by the
    slave-side firewall (posted-write failures).
    """
    sim = Simulator()
    fabric = InterconnectFabric(sim)
    fabric.add_segment("seg0")
    fabric.add_segment("seg1")
    fabric.add_bridge("br0", "seg0", "seg1", forward_latency=3,
                      posted_writes=True, buffer_depth=1)
    fabric.add_region("bram0", 0x0000, 0x1000, slave="bram0", segment="seg0")
    fabric.add_region("bram1", _REMOTE_BASE, 0x1000, slave="bram1", segment="seg1")
    fabric.finalize()

    system = SoCSystem(sim, fabric, SoCConfig())
    system.add_memory(BlockRAM(sim, "bram0", base=0x0000, size=0x1000), segment="seg0")
    remote = system.add_memory(
        BlockRAM(sim, "bram1", base=_REMOTE_BASE, size=0x1000), segment="seg1"
    )
    memory = ConfigurationMemory("cfg_bram1", capacity=4)
    memory.add(_REMOTE_BASE, 0x800, SecurityPolicy(spi=1), label="rw_half")
    memory.add(_RO_BASE, 0x800, SecurityPolicy(spi=2, rwa=ReadWriteAccess.READ_ONLY),
               label="ro_half")
    firewall = LocalFirewall(sim, "lf_bram1", memory)
    remote.attach_filter(firewall)

    cpu = system.add_processor("cpu0", segment="seg0")
    ops = []
    # Deterministic prefix: each read-only-half write finds the buffer empty,
    # posts, is acknowledged — and its clone is then denied downstream (the
    # posted-write hazard).  The compute gap lets the buffer drain so every
    # prefix write is admitted as posted rather than ordered.
    for i in range(3):
        ops.append(MemoryOperation.write(_RO_BASE + 0x100 * i, b"\xa5" * 4))
        ops.append(MemoryOperation.compute(300))
    rng = random.Random(20110)
    for i in range(30):
        payload = bytes([i & 0xFF] * 4)
        roll = rng.random()
        if roll < 0.5:
            # Writable half: posts while the buffer has room, stalls after.
            ops.append(MemoryOperation.write(_REMOTE_BASE + 8 * i, payload))
        elif roll < 0.7:
            # Read-only half: the ack lands, then the clone dies downstream.
            ops.append(MemoryOperation.write(_RO_BASE + 8 * i, payload))
        else:
            # Reads must queue behind pending posted clones, never overtake.
            ops.append(MemoryOperation.read(_REMOTE_BASE + 8 * i))
    cpu.load_program(ProcessorProgram(operations=ops, name="posted_storm"))
    return system, firewall


def _run_posted_overflow():
    system, firewall = _posted_overflow_platform()
    system.start_all()
    final = system.run()
    cpu = system.processors["cpu0"]
    bridge = system.bus.bridges["br0"]
    observables = {
        "final": final,
        "events": system.sim.events_processed,
        "bridge": dict(bridge.stats),
        "statuses": [t.status for t in cpu.transactions],
        "blocked": [
            (t.address, t.status, t.annotations.get("block_reason"))
            for t in cpu.blocked_transactions
        ],
        "cpu": dict(cpu.stats),
        "port": dict(cpu.port.stats),
        "segments": {
            name: dict(seg.stats) for name, seg in system.bus.segments.items()
        },
        "memory": system.memories["bram1"].peek(_REMOTE_BASE, 0x1000),
    }
    return observables, firewall.security_builder.cache_hits


def test_posted_buffer_overflow_exercises_every_posted_shape():
    observed, _ = _run_posted_overflow()

    stats = observed["bridge"]
    assert stats["posted_writes"] > 0
    assert stats["posted_stalls"] > 0, "buffer never overflowed"
    assert stats["ordered_behind_posted"] > 0
    assert stats["posted_write_failures"] > 0, "no clone was denied downstream"
    assert stats["posted_completed"] == stats["posted_writes"]

    # Non-posted fallback ordering: denied writes that missed the buffer (and
    # denied clones' origins) terminate in program order at the master.
    blocked_addresses = [addr for addr, _, _ in observed["blocked"]]
    assert all(addr >= _RO_BASE for addr in blocked_addresses)
    assert any(s is TransactionStatus.BLOCKED_AT_SLAVE for s in observed["statuses"])


def test_posted_buffer_overflow_matches_reference_path():
    cached, hits = _run_posted_overflow()
    again, _ = _run_posted_overflow()
    with reference_mode():
        reference, reference_hits = _run_posted_overflow()

    assert hits > 0 and reference_hits == 0
    assert again == cached
    assert reference == cached
