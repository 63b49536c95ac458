#!/usr/bin/env python3
"""Attack campaign: the full detection matrix of the threat model.

Runs every attack of the paper's threat model (section III) against the
unprotected platform and against the platform with the distributed firewalls,
then prints the resulting detection/prevention matrix:

* spoofing, replay and relocation of external-memory content,
* a hijacked processor probing the dedicated IP's key registers,
* a hijacked processor issuing a malformed (wrong data format) write,
* a hijacked DMA engine exfiltrating secrets to unprotected memory,
* a denial-of-service flood from a hijacked processor.

The whole pipeline runs through the unified ``Experiment`` façade: the
``paper_baseline`` scenario's attack mix runs on fresh platforms, one attack
after the other, and the instrumentation counters of every platform the
campaign built come back in the same uniform result record.

Run with:  python examples/attack_campaign.py
Equivalent CLI:  python -m repro campaign paper_baseline
"""

from repro.api import Experiment, StatsSink
from repro.analysis.tables import format_table


def main() -> None:
    result = (
        Experiment.from_scenario("paper_baseline")
        .with_workload(None)                      # campaign only, no workload phase
        .with_sink(StatsSink())                   # campaign event counters
        .run()
    )
    campaign = result.campaign

    rows = [
        [
            row["attack"],
            row["unprotected"],
            row["protected"],
            row["detected"],
            row["contained_at_if"],
            row["detection_cycle"],
        ]
        for row in campaign["rows"]
    ]
    print(
        format_table(
            ["attack", "unprotected platform", "protected platform",
             "detected", "stopped at interface", "detection cycle"],
            rows,
            title="Attack campaign -- distributed firewalls vs the paper's threat model",
        )
    )
    print()
    summary = campaign["summary"]
    metrics = campaign["metrics"]
    print(f"attacks run        : {summary['attacks']}")
    print(f"prevented          : {summary['prevented']} "
          f"({100 * summary['prevention_rate']:.0f}%)")
    print(f"detected           : {summary['detected']} "
          f"({100 * summary['detection_rate']:.0f}%)")
    print(f"wall time          : {metrics.get('wall_seconds', 0.0):.2f}s")
    if campaign["monitor_totals"]:
        print("alerts by violation:",
              ", ".join(f"{k}={v}" for k, v in sorted(campaign["monitor_totals"].items())))
    if campaign["event_totals"]:
        print("campaign events    :",
              ", ".join(f"{k}={v}" for k, v in sorted(campaign["event_totals"].items())))


if __name__ == "__main__":
    main()
