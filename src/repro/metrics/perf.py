"""Execution-time overhead of the security enhancements.

Section V of the paper discusses (without a table) how the protection
mechanisms impact global execution time: "the impact of the protection
mechanisms on the global execution time depends on the percentage of
computation time versus communication time.  Furthermore the latency overhead
is also impacted by the percentage of internal communication versus external
communication."

This module turns that discussion into a measurable experiment: run the same
workload on the unprotected and on the protected build of one scenario spec
and compare makespans, as the communication-ratio and external-share sweeps
of ``tests/test_metrics.py`` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.soc.processor import ProcessorProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios -> metrics)
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["WorkloadRunResult", "OverheadResult", "run_workload", "measure_execution_overhead"]


@dataclass
class WorkloadRunResult:
    """Outcome of one workload run on one platform variant."""

    protected: bool
    makespan_cycles: int
    per_cpu_cycles: Dict[str, int]
    total_transactions: int
    blocked_transactions: int
    security_cycles: int
    communication_cycles: int
    computation_cycles: int


@dataclass
class OverheadResult:
    """Protected-vs-unprotected comparison for one workload."""

    baseline: WorkloadRunResult
    protected: WorkloadRunResult

    @property
    def slowdown(self) -> float:
        """Protected makespan divided by baseline makespan (>= 1.0 normally)."""
        if self.baseline.makespan_cycles == 0:
            return 1.0
        return self.protected.makespan_cycles / self.baseline.makespan_cycles

    @property
    def overhead_percent(self) -> float:
        """Relative execution-time overhead in percent."""
        return (self.slowdown - 1.0) * 100.0


def run_workload(
    programs: Dict[str, ProcessorProgram],
    protected: bool,
    spec: "ScenarioSpec",
    max_events: Optional[int] = None,
) -> WorkloadRunResult:
    """Build a fresh ``spec`` platform, load ``programs`` and run to completion."""
    # Imported lazily: the scenario builder imports this package.
    from repro.scenarios.builder import ScenarioBuilder

    system = ScenarioBuilder(spec).build(protected).system
    system.load_programs(programs)
    system.start_all()
    system.run(max_events=max_events)

    per_cpu = {
        name: (cpu.execution_cycles or 0) for name, cpu in system.processors.items()
    }
    transactions = [t for cpu in system.processors.values() for t in cpu.transactions]
    blocked = sum(1 for t in transactions if t.status.is_blocked)
    security_cycles = sum(t.security_latency for t in transactions)
    communication = sum(cpu.communication_cycles() for cpu in system.processors.values())
    computation = sum(cpu.computation_cycles() for cpu in system.processors.values())

    return WorkloadRunResult(
        protected=protected,
        makespan_cycles=system.execution_cycles(),
        per_cpu_cycles=per_cpu,
        total_transactions=len(transactions),
        blocked_transactions=blocked,
        security_cycles=security_cycles,
        communication_cycles=communication,
        computation_cycles=computation,
    )


def measure_execution_overhead(
    programs: Dict[str, ProcessorProgram], spec: "ScenarioSpec"
) -> OverheadResult:
    """Run ``programs`` on both builds of ``spec`` and compare makespans.

    The same program objects are reused for both runs; they carry no mutable
    state besides what the Processor tracks per run (each run constructs new
    Processor instances), so the comparison is apples-to-apples.
    """
    baseline = run_workload(programs, False, spec)
    protected = run_workload(programs, True, spec)
    return OverheadResult(baseline=baseline, protected=protected)
