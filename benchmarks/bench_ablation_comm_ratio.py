"""Experiment E5 -- ablation: execution-time overhead vs communication profile.

Section V of the paper argues (without numbers) that the overhead of the
protection "depends on the percentage of computation time versus
communication time" and "the percentage of internal communication versus
external communication", because only external accesses pay for the
Confidentiality and Integrity Cores.  This ablation measures both trends on
the simulated platform:

* sweep the communication ratio at a fixed external share,
* sweep the external share at a fixed communication ratio,
* check both trends are monotone (more communication and more external
  traffic both increase the overhead) and that promoting internal
  communication improves performance, as the paper recommends.

The benchmark timing measures one protected workload run (the unit of work of
the sweep).
"""

from __future__ import annotations

from conftest import bench_rounds, write_bench_json, write_result

from repro.analysis.tables import format_table
from repro.metrics.perf import measure_execution_overhead, run_workload
from repro.scenarios import ScenarioBuilder, get_scenario
from repro.workloads.generators import make_uniform_programs

N_OPERATIONS = 60
CPUS = ["cpu0", "cpu1", "cpu2"]
COMM_RATIOS = [0.2, 0.5, 0.8]
EXTERNAL_SHARES = [0.1, 0.4, 0.8]
FIXED_EXTERNAL_SHARE = 0.4
FIXED_COMM_RATIO = 0.6

SPEC = get_scenario("paper_baseline")
CONFIG = ScenarioBuilder(SPEC).build(protected=False).system.config


def make_programs(communication_ratio, external_share, seed=11):
    return make_uniform_programs(
        CONFIG,
        CPUS,
        n_operations=N_OPERATIONS,
        communication_ratio=communication_ratio,
        external_share=external_share,
        external_working_set=2048,
        internal_working_set=2048,
        seed=seed,
    )


def run_sweeps():
    comm_rows = []
    for ratio in COMM_RATIOS:
        programs = make_programs(ratio, FIXED_EXTERNAL_SHARE)
        overhead = measure_execution_overhead(programs, SPEC)
        comm_rows.append(
            [f"{ratio:.1f}", overhead.baseline.makespan_cycles,
             overhead.protected.makespan_cycles, f"{overhead.overhead_percent:.1f}%",
             f"{100 * overhead.security_cycle_share:.1f}%"]
        )

    external_rows = []
    for share in EXTERNAL_SHARES:
        programs = make_programs(FIXED_COMM_RATIO, share, seed=23)
        overhead = measure_execution_overhead(programs, SPEC)
        external_rows.append(
            [f"{share:.1f}", overhead.baseline.makespan_cycles,
             overhead.protected.makespan_cycles, f"{overhead.overhead_percent:.1f}%",
             f"{100 * overhead.security_cycle_share:.1f}%"]
        )
    return comm_rows, external_rows


def test_ablation_comm_ratio(benchmark, results_dir):
    comm_rows, external_rows = run_sweeps()

    def one_protected_run():
        return run_workload(make_programs(FIXED_COMM_RATIO, FIXED_EXTERNAL_SHARE), True, SPEC)

    benchmark.pedantic(one_protected_run, rounds=bench_rounds(3), iterations=1)

    # Trend 1: more communication -> more overhead.
    comm_overheads = [float(row[3].rstrip("%")) for row in comm_rows]
    assert comm_overheads[-1] > comm_overheads[0]
    # Trend 2: more external traffic -> more overhead (the paper's advice to
    # promote internal communication).
    external_overheads = [float(row[3].rstrip("%")) for row in external_rows]
    assert external_overheads == sorted(external_overheads)
    assert external_overheads[-1] > external_overheads[0]
    # Protection never speeds anything up.
    assert all(value >= 0.0 for value in comm_overheads + external_overheads)

    headers = ["sweep value", "baseline makespan (cycles)", "protected makespan (cycles)",
               "overhead", "security cycles share"]
    rendered = format_table(
        headers, comm_rows,
        title=f"E5a -- overhead vs communication ratio (external share = {FIXED_EXTERNAL_SHARE})",
    )
    rendered += "\n\n"
    rendered += format_table(
        headers, external_rows,
        title=f"E5b -- overhead vs external share (communication ratio = {FIXED_COMM_RATIO})",
    )
    rendered += (
        "\n\nreading: the paper predicts both trends qualitatively (section V); "
        "the absolute percentages\ndepend on the simulator's memory timings and "
        "are not paper-reported values.\n"
    )
    write_result(results_dir, "ablation_comm_ratio.txt", rendered)
    write_bench_json(
        results_dir,
        "ablation_comm_ratio",
        benchmark,
        comm_ratio_overheads_percent=comm_overheads,
        external_share_overheads_percent=external_overheads,
    )
