#!/usr/bin/env python3
"""Architecture and cost report: regenerate Figure 1 and Table I.

Prints:

* the structural description of the protected platform (which interface
  carries which firewall, and the memory map) -- the paper's Figure 1,
* the regenerated Table I from the calibrated area model, next to the paper's
  reported numbers,
* how the area model extrapolates when the platform grows (more processors,
  more security rules) -- the discussion the paper defers to future work.

Run with:  python examples/area_report.py
"""

from repro.analysis.report import ArchitectureReport, render_table1
from repro.analysis.tables import format_table
from repro.api import Experiment
from repro.metrics.area import AreaModel, PAPER_TABLE1, generate_table1


def main() -> None:
    # -- Figure 1: the secured platform's topology -----------------------------
    system = Experiment.from_scenario("paper_baseline").build().system
    report = ArchitectureReport(system.describe_topology())
    print(report.render())
    print()
    print(f"interfaces carrying a firewall: {report.firewall_count()}")
    print()

    # -- Table I: the calibrated area model ------------------------------------
    print(render_table1(generate_table1()))
    print()
    paper = PAPER_TABLE1["generic_with_firewalls"]
    print("paper-reported protected platform:",
          f"{paper.slice_registers:,} regs / {paper.slice_luts:,} LUTs / "
          f"{paper.lut_ff_pairs:,} LUT-FF pairs / {int(paper.brams)} BRAMs")
    model = AreaModel()
    print(f"crypto cores' share of the LCF    : {100 * model.lcf_component_share():.1f}% "
          "(paper: 'about 90%')")
    print()

    # -- extrapolation: platform size and policy aggressiveness ----------------
    rows = []
    for n_cpus in (3, 4, 6, 8):
        n_firewalls = n_cpus + 2  # one LF per CPU + BRAM + dedicated IP
        area = model.platform_with_firewalls(n_local_firewalls=n_firewalls)
        overhead = area.overhead_vs(model.platform_without_firewalls())
        rows.append([
            f"{n_cpus} CPUs ({n_firewalls} LFs + LCF)",
            int(area.slice_registers), int(area.slice_luts),
            f"+{100 * overhead['slice_luts']:.1f}%",
        ])
    print(format_table(
        ["platform", "slice regs", "slice LUTs", "LUT overhead vs baseline"],
        rows,
        title="Extrapolation: area vs number of processors",
    ))


if __name__ == "__main__":
    main()
