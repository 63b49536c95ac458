"""Experiment E2 -- paper Table II: latency of the firewall modules.

Runs a micro-workload through the protected platform (internal accesses,
ciphered+authenticated external accesses) and extracts the per-module
latencies actually charged by the Security Builder, the Confidentiality Core
and the Integrity Core.  Reproduction criteria:

* SB = 12 cycles per policy evaluation,
* CC = 11 cycles per 128-bit AES block,
* IC = 20 cycles per hash-tree operation,
* the module ordering of the throughput column matches the paper
  (CC faster than IC).

The benchmark timing measures one protected external read-modify-write pair
end to end through the simulator, i.e. the unit of work of every workload
sweep.
"""

from __future__ import annotations

import statistics
import time

from conftest import FAST_MODE, bench_rounds, write_bench_json, write_result

from repro.api.events import EventBus, StatsSink, attach_instrumentation

from repro.analysis.report import render_table2
from repro.core.constants import (
    CONFIDENTIALITY_CORE_CYCLES,
    INTEGRITY_CORE_CYCLES,
    SECURITY_BUILDER_CYCLES,
)
from repro.metrics.latency import generate_table2
from repro.scenarios import ScenarioBuilder, get_scenario
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.transaction import BusOperation, BusTransaction


def build_protected_platform():
    built = ScenarioBuilder(get_scenario("paper_baseline")).build()
    return built.system, built.security


def run_micro_workload(system):
    cfg = system.config
    program = ProcessorProgram(
        [
            MemoryOperation.write(cfg.bram_base + 0x40, bytes(4)),
            MemoryOperation.read(cfg.bram_base + 0x40),
            MemoryOperation.write(cfg.ip_regs_base + 0x08, (3).to_bytes(4, "little")),
            MemoryOperation.write(cfg.ddr_base + 0x40, bytes(range(32))),
            MemoryOperation.read(cfg.ddr_base + 0x40, width=4, burst_length=8),
            MemoryOperation.write(cfg.ddr_base + 0x880, b"\xAA" * 16),   # cipher-only window
            MemoryOperation.read(cfg.ddr_base + 0x880, width=4, burst_length=4),
        ],
        name="table2_micro",
    )
    system.processors["cpu0"].load_program(program)
    system.processors["cpu0"].start()
    system.run()
    return system.processors["cpu0"]


def _protected_rw_pair(system, offset):
    """One protected external write + read back (the benchmarked unit)."""
    cfg = system.config
    address = cfg.ddr_base + 0x400 + (offset % 64) * 32
    write = BusTransaction(master="cpu1", operation=BusOperation.WRITE, address=address,
                           width=4, burst_length=8, data=bytes(32))
    system.master_ports["cpu1"].issue(write, lambda t: None)
    system.run()
    read = BusTransaction(master="cpu1", operation=BusOperation.READ, address=address,
                          width=4, burst_length=8)
    system.master_ports["cpu1"].issue(read, lambda t: None)
    system.run()
    return read


def _time_pairs(system, n_pairs: int, base_offset: int) -> float:
    """Wall time of ``n_pairs`` protected external read/write pairs."""
    started = time.perf_counter()
    for index in range(n_pairs):
        _protected_rw_pair(system, base_offset + index)
    return time.perf_counter() - started


def _stats_sink_overhead() -> tuple:
    """Relative cost of an always-on counting sink on the RMW-pair hot loop.

    Compares two freshly built protected platforms — one uninstrumented, one
    with a counting-only :class:`StatsSink` on the event bus — over the same
    pair workload.
    """
    plain_system, _ = build_protected_platform()
    instrumented_system, instrumented_security = build_protected_platform()
    stats = StatsSink()
    attach_instrumentation(instrumented_system, instrumented_security, EventBus([stats]))

    n_pairs = 60 if FAST_MODE else 120
    _time_pairs(plain_system, 10, 0)           # warm decision/keystream caches
    _time_pairs(instrumented_system, 10, 0)
    # Median of paired ratios: each repeat times both variants back to back,
    # so slow drift (frequency scaling, background load) hits both sides of a
    # ratio equally, and the median discards the occasional noisy repeat.
    ratios = []
    for k in range(7):
        plain = _time_pairs(plain_system, n_pairs, 100 + k * n_pairs)
        instrumented = _time_pairs(instrumented_system, n_pairs, 100 + k * n_pairs)
        ratios.append(instrumented / plain)
    return statistics.median(ratios) - 1.0, stats


def test_stats_sink_overhead_under_5_percent(results_dir):
    """Enabling a counting-only stats sink must cost <5% on the hot loop."""
    overhead, stats = _stats_sink_overhead()
    if overhead >= 0.05:
        # One re-measure before failing: a shared CI runner can land a noise
        # spike inside a single measurement window; a real regression (like
        # payload construction on the counting path, ~10%) fails both.
        overhead = min(overhead, _stats_sink_overhead()[0])
    assert stats.total() > 0, "instrumented run emitted no events"
    assert "firewall.decision" in stats.counts
    assert overhead < 0.05, f"stats sink costs {100 * overhead:.1f}% (>5%)"
    write_bench_json(
        results_dir,
        "table2_sink_overhead",
        None,
        overhead_fraction=overhead,
        events_counted=stats.total(),
        event_kinds=sorted(stats.counts),
    )


def test_table2_latency(benchmark, results_dir):
    system, security = build_protected_platform()
    cpu = run_micro_workload(system)

    counter = {"n": 0}

    def one_pair():
        counter["n"] += 1
        return _protected_rw_pair(system, counter["n"])

    benchmark.pedantic(one_pair, rounds=bench_rounds(10), iterations=1)

    local_firewalls = [
        fw for fw in security.all_firewalls if fw is not security.ciphering_firewall
    ]
    rows = generate_table2(local_firewalls, security.ciphering_firewall)
    by_module = {row.module: row for row in rows}

    # Reproduction criteria: the per-module cycle counts of Table II.
    assert by_module["SB (LF/LCF)"].measured_cycles == SECURITY_BUILDER_CYCLES
    assert by_module["CC"].measured_cycles == CONFIDENTIALITY_CORE_CYCLES
    assert by_module["IC"].measured_cycles == INTEGRITY_CORE_CYCLES
    assert all(row.cycles_match_paper for row in rows)
    # Throughput ordering: the Confidentiality Core outruns the Integrity Core.
    assert by_module["CC"].ideal_throughput_mbps > by_module["IC"].ideal_throughput_mbps
    assert by_module["CC"].paper_throughput_mbps > by_module["IC"].paper_throughput_mbps

    # End-to-end sanity: a protected external access pays SB + CC + IC, an
    # internal access only SB (per traversed firewall).
    external_reads = [t for t in cpu.transactions
                      if t.is_read and t.address >= system.config.ddr_base]
    internal_reads = [t for t in cpu.transactions
                      if t.is_read and t.address < system.config.ddr_base]
    assert all("confidentiality_core" in t.latency_breakdown for t in external_reads)
    assert all("confidentiality_core" not in t.latency_breakdown for t in internal_reads)

    rendered = render_table2(rows)
    rendered += (
        "\nnotes:\n"
        "  - cycle counts are the per-operation averages charged on the live\n"
        "    platform; they must equal the paper's figures exactly because the\n"
        "    firewall pipelines are calibrated with them.\n"
        "  - 'ideal throughput' is derived from the cycle counts at 100 MHz\n"
        "    (IC includes the full hash-tree walk); the paper's throughput\n"
        "    column was measured on the FPGA memory subsystem, so only the\n"
        "    ordering (CC faster than IC) is expected to match.\n"
    )
    write_result(results_dir, "table2_latency.txt", rendered)
    write_bench_json(
        results_dir,
        "table2_latency",
        benchmark,
        sb_cycles=by_module["SB (LF/LCF)"].measured_cycles,
        cc_cycles=by_module["CC"].measured_cycles,
        ic_cycles=by_module["IC"].measured_cycles,
        cc_ideal_throughput_mbps=by_module["CC"].ideal_throughput_mbps,
        ic_ideal_throughput_mbps=by_module["IC"].ideal_throughput_mbps,
        external_reads=len(external_reads),
        internal_reads=len(internal_reads),
    )
