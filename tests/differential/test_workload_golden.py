"""Golden workload fingerprints and observation-only instrumentation.

The event-driven kernel is the only execution engine, so nothing runs beside
it to catch a behavioural drift.  This file pins it instead: for every
registered scenario — flat segments and bridged-segment fabrics alike, on the
protected and the unprotected build — the structural fingerprint of the
workload run (alert stream, event and cycle counts, memory images, firewall
verdict counters, reaction log) must hash to the digest recorded in
``tests/golden/workload_fingerprints.json``.  A kernel, arbiter, bridge or
firewall change that moves any observable fails here with the scenario named.
Each entry also pins three interconnect observables the digest does not
cover: the per-hop latency keys (``latency.per_hop`` of every result), the
bus name (Figure 1's ``shared bus:`` line) and the sources of the
``bus.granted`` events (every JSONL trace).

After an intentional behaviour change, regenerate the file with::

    PYTHONPATH=src python -m tests.golden --write workload

The rest of the file holds the other half of the old engine contract that
still applies to the one engine: instrumentation observes a run without
changing it, and the payload-free counting lane counts exactly what the
full-event lane records.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.api.events import EventBus, InMemorySink, StatsSink, attach_instrumentation
from repro.metrics.latency import aggregate_hop_latency
from repro.scenarios import registry
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.differential import _variant_fingerprint, diff_fingerprints
from repro.soc.fabric import InterconnectFabric

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "workload_fingerprints.json"

ALL_SCENARIOS = registry.list_scenarios()

VARIANTS = (("protected", True), ("unprotected", False))

#: Scenarios on a bridged-segment fabric.
FABRIC_SCENARIOS = {
    "two_segment_dma_isolation",
    "bridge_firewalled_centralized",
    "deep_hierarchy_3seg",
    "cross_segment_attack_storm",
    "secure_boot_bay",
}

#: Every fabric shape plus the flat scenario with the most attack traffic.
INSTRUMENTED_SCENARIOS = sorted(FABRIC_SCENARIOS) + ["attack_heavy"]


def _run(name: str, protected: bool = True, instrument=None):
    built = ScenarioBuilder(registry.get_scenario(name)).build(protected)
    if instrument is not None:
        attach_instrumentation(built.system, built.security, EventBus([instrument]))
    final = built.run_workload()
    return _variant_fingerprint(built, final), built


def _golden_entry(name: str, protected: bool) -> dict:
    fingerprint, built = _run(name, protected)
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    # A second, recorded run: the digest above pins the uninstrumented one.
    sink = InMemorySink()
    _run(name, protected, instrument=sink)
    return {
        "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
        "workload_cycles": fingerprint["workload_cycles"],
        "events_processed": fingerprint["events_processed"],
        "alerts": len(fingerprint["alerts"]),
        "per_hop": sorted(aggregate_hop_latency(built.system.bus.monitor.history)),
        "bus": built.system.describe_topology()["bus"],
        "granted_sources": sorted({event.source for event in sink.of_kind("bus.granted")}),
    }


def _golden_table() -> dict:
    return {
        name: {label: _golden_entry(name, protected) for label, protected in VARIANTS}
        for name in ALL_SCENARIOS
    }


def golden_text() -> str:
    return json.dumps(_golden_table(), indent=2, sort_keys=True) + "\n"


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("protected", [True, False], ids=["protected", "unprotected"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_workload_fingerprint_matches_golden(name, protected):
    label = "protected" if protected else "unprotected"
    want = _load_golden()[name][label]
    got = _golden_entry(name, protected)
    assert got == want, (
        f"{name} ({label}) drifted from tests/golden/workload_fingerprints.json: "
        f"got {got}, want {want}; regenerate the file if the change is intentional"
    )


def test_golden_file_covers_the_registry():
    golden = _load_golden()
    assert sorted(golden) == sorted(ALL_SCENARIOS)
    for name, variants in golden.items():
        assert sorted(variants) == sorted(label for label, _ in VARIANTS), name


def test_registry_covers_both_fabric_shapes():
    """The golden pins are only meaningful if the registry exercises both
    flat segments and bridged fabrics, and each builds the shape it claims:
    every platform is a fabric, and a flat one has one segment, no bridges."""
    names = set(ALL_SCENARIOS)
    assert FABRIC_SCENARIOS <= names
    assert names - FABRIC_SCENARIOS, "expected at least one flat scenario"
    for name in ALL_SCENARIOS:
        bus = ScenarioBuilder(registry.get_scenario(name)).build(True).system.bus
        assert isinstance(bus, InterconnectFabric), name
        if name in FABRIC_SCENARIOS:
            assert len(bus.segments) >= 2 and len(bus.bridges) >= 1, name
        else:
            assert list(bus.segments) == ["system_bus"] and not bus.bridges, name


@pytest.mark.parametrize("name", INSTRUMENTED_SCENARIOS)
def test_counting_instrumentation_is_count_identical(name):
    """The payload-free counting lane (every sink counting-only) must count
    exactly the events the full-event lane records, and neither lane may
    change a single observable of the run."""
    plain, _ = _run(name)
    counter, recorder = StatsSink(), InMemorySink()
    counted, _ = _run(name, instrument=counter)
    recorded, _ = _run(name, instrument=recorder)

    assert counter.counts == recorder.counts
    assert counter.counts.get("txn.issued", 0) > 0
    assert counter.counts.get("sim.run", 0) >= 1
    for label, fingerprint in (("counting", counted), ("recording", recorded)):
        diffs = diff_fingerprints(plain, fingerprint)
        assert not diffs, f"{label} sink changed {name}:\n  " + "\n  ".join(diffs)


@pytest.mark.parametrize("name", INSTRUMENTED_SCENARIOS)
def test_recorded_stream_is_ordered_and_terminates_every_transaction(name):
    """Events arrive in kernel callback order, so their cycles never go
    backwards, and every transaction a master port accepts terminates there
    exactly once — completed or blocked."""
    sink = InMemorySink()
    _run(name, instrument=sink)
    cycles = [event.cycle for event in sink.events]
    assert cycles == sorted(cycles)
    issued = sink.counts.get("txn.issued", 0)
    assert issued > 0
    assert sink.counts.get("txn.completed", 0) + sink.counts.get("txn.blocked", 0) == issued


def test_split_transaction_flag_only_moves_the_schedule():
    """A slave port flying the split-transaction flag releases its segment at
    request hand-off instead of holding it until the reply.  That overlaps
    later grants with the slave access, so the run gets shorter, but every
    transaction is still served with the same data and the same verdicts."""

    def run(split):
        built = ScenarioBuilder(registry.get_scenario("paper_baseline")).build(True)
        segment = built.system.bus.segment()
        segment.slave_port(segment.slave_names[0]).split_transactions = split
        final = built.run_workload()
        return _variant_fingerprint(built, final), dict(segment.stats)

    held, held_bus = run(False)
    split, split_bus = run(True)
    for key in ("memories", "alerts", "reactions"):
        assert split[key] == held[key], key
    assert split_bus == held_bus
    assert split_bus["granted"] == split_bus["completed"] > 0
    assert split["makespan"] < held["makespan"]


def test_completion_hook_fires_once_without_perturbing_the_run():
    """A processor completion hook observes the run and changes nothing."""

    def run(hooked):
        built = ScenarioBuilder(registry.get_scenario("paper_baseline")).build(True)
        proc = next(iter(built.system.processors.values()))
        calls = []
        if hooked:
            proc.on_finished = lambda p: calls.append((p.name, p.finished_at))
        final = built.run_workload()
        return _variant_fingerprint(built, final), proc, calls

    plain, _, _ = run(False)
    fingerprint, proc, calls = run(True)
    assert calls == [(proc.name, proc.finished_at)]
    assert not diff_fingerprints(plain, fingerprint)
