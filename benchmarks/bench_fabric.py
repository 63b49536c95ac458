"""Fabric scaling sweep: masters x segments.

The fabric refactor makes topology a free axis, so this benchmark measures
what it costs: a grid of (segments, CPUs-per-segment) platforms runs the same
per-CPU synthetic workload, protected with ``both`` placement (leaf LFs plus
a firewall on every bridge).  Segments form a chain — seg0 holds the BRAM the
workload hammers, the last segment holds the DDR — so external traffic
crosses every bridge and the per-hop attribution has real multi-hop paths to
split.

Asserted invariants:

* every cell of the grid builds, runs and completes its workload,
* multi-segment cells actually forward across every bridge (hop-attributed
  bridge cycles are non-zero),
* the bridge Security Builders charge the Table-II 12-cycle latency per
  evaluation, exactly like the leaf firewalls.

The timed section is the largest cell (most segments, most masters); in
``REPRO_BENCH_FAST=1`` smoke mode (the CI bench job) the grid shrinks and a
single timing round runs.
"""

from __future__ import annotations

from conftest import FAST_MODE, bench_rounds, write_bench_json, write_result

from repro.analysis.tables import format_table
from repro.api import Experiment
from repro.metrics.latency import aggregate_hop_latency, placement_split
from repro.scenarios import (
    BridgeSpec,
    MasterSpec,
    ScenarioSpec,
    SegmentSpec,
    SlaveSpec,
    TopologySpec,
    WindowSpec,
    WorkloadSpec,
)

_BRAM_BASE = 0x0000_0000
_DDR_BASE = 0x9000_0000

#: (segments, cpus-per-segment) grid; trimmed in CI smoke mode.
GRID = [(1, 1), (1, 4), (2, 2), (3, 2)] if FAST_MODE else [
    (1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2),
]


def fabric_spec(n_segments: int, cpus_per_segment: int) -> ScenarioSpec:
    """A chain of ``n_segments`` with ``cpus_per_segment`` CPUs on each."""
    segments = tuple(SegmentSpec(f"seg{i}") for i in range(n_segments))
    bridges = tuple(
        BridgeSpec(f"br{i}", f"seg{i}", f"seg{i+1}", forward_latency=2)
        for i in range(n_segments - 1)
    )
    masters = tuple(
        MasterSpec(f"cpu{seg}_{idx}", accessible=("bram", "ddr"),
                   segment=f"seg{seg}" if n_segments > 1 else "")
        for seg in range(n_segments)
        for idx in range(cpus_per_segment)
    )
    ddr_segment = f"seg{n_segments - 1}" if n_segments > 1 else ""
    slaves = (
        SlaveSpec("bram", "bram", base=_BRAM_BASE, size=16 * 1024,
                  segment="seg0" if n_segments > 1 else ""),
        SlaveSpec("ddr", "ddr", base=_DDR_BASE, size=32 * 1024, segment=ddr_segment,
                  windows=(WindowSpec("secure", 1024),)),
    )
    return ScenarioSpec(
        name=f"fabric_{n_segments}seg_{cpus_per_segment}cpu",
        description="fabric scaling cell",
        topology=TopologySpec(masters=masters, slaves=slaves,
                              segments=segments if n_segments > 1 else (),
                              bridges=bridges),
        placement="both" if n_segments > 1 else "leaf",
        workload=WorkloadSpec(n_operations=40, external_share=0.4,
                              ip_share_of_internal=0.0, compute_burst_cycles=5,
                              seed=17),
    )


def run_cell(n_segments: int, cpus_per_segment: int) -> dict:
    built = Experiment.from_spec(fabric_spec(n_segments, cpus_per_segment)).build()
    cycles = built.run_workload()
    assert built.system.all_done(), "every CPU must finish its program"

    hops = aggregate_hop_latency(built.system.bus.monitor.history)
    bridge_cycles = sum(c for stage, c in hops.items() if stage.startswith("bridge:"))
    segment_cycles = sum(c for stage, c in hops.items() if stage.startswith("bus"))
    rows = {row.placement: row for row in placement_split(built.security)}
    if n_segments > 1:
        assert bridge_cycles > 0, "multi-segment traffic must cross bridges"
        assert rows["bridge"].evaluations > 0
        mean = rows["bridge"].cycles / rows["bridge"].evaluations
        assert abs(mean - 12.0) < 1e-9, "bridge SBs must charge Table-II latency"
    return {
        "segments": n_segments,
        "cpus_per_segment": cpus_per_segment,
        "masters": n_segments * cpus_per_segment,
        "cycles": cycles,
        "bridge_cycles": bridge_cycles,
        "segment_cycles": segment_cycles,
        "bridge_sb_evaluations": rows["bridge"].evaluations,
        "leaf_sb_evaluations": rows["leaf_master"].evaluations + rows["leaf_slave"].evaluations,
    }


def test_fabric_scaling_sweep(benchmark, results_dir):
    rows = [run_cell(*cell) for cell in GRID]

    largest = max(GRID, key=lambda cell: (cell[0] * cell[1], cell[0]))
    benchmark.pedantic(
        lambda: run_cell(*largest),
        rounds=bench_rounds(3),
        iterations=1,
    )

    rendered = format_table(
        ["segments", "cpus/seg", "masters", "cycles", "bridge cyc", "segment cyc",
         "bridge SB evals", "leaf SB evals"],
        [[r["segments"], r["cpus_per_segment"], r["masters"], r["cycles"],
          r["bridge_cycles"], r["segment_cycles"],
          r["bridge_sb_evaluations"], r["leaf_sb_evaluations"]] for r in rows],
        title="Fabric scaling -- masters x segments, both-placement firewalls",
    )
    write_result(results_dir, "fabric.txt", rendered)
    write_bench_json(
        results_dir,
        "fabric",
        benchmark,
        grid=[list(cell) for cell in GRID],
        cells=rows,
        timed_cell=list(largest),
    )
