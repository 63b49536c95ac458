#!/usr/bin/env python3
"""Scenario matrix: sweep the registry of SoC topologies.

Runs every registered scenario (or a chosen one) through the unified
``Experiment`` pipeline: builds the topology, attaches the firewalls, drives
the workload mix, runs the attack mix on protected and unprotected builds,
and prints one summary row per scenario.  With ``--differential`` each
scenario additionally runs twice — memos on vs. every platform built with
its decision, region and keystream memos off — and the structural
fingerprints (alerts, cycle counts, ciphertexts) are compared.

Run with:
    python examples/scenario_matrix.py                 # full registry
    python examples/scenario_matrix.py --list          # names + descriptions
    python examples/scenario_matrix.py --scenario crypto_heavy
    python examples/scenario_matrix.py --differential  # golden-model check

Equivalent CLI:  python -m repro list / python -m repro run <scenario>
"""

import argparse
import sys
import time

from repro.analysis.tables import format_table
from repro.api import Experiment
from repro.scenarios import assert_equivalent, differential_pair, get_scenario, list_scenarios


def run_one(name: str) -> dict:
    """Run one scenario end to end; returns its summary row."""
    started = time.perf_counter()
    result = Experiment.from_scenario(name).run()
    campaign = result.campaign or {"summary": {"attacks": 0, "prevented": 0, "detected": 0}}
    summary = campaign["summary"]
    spec = get_scenario(name)
    return {
        "scenario": name,
        "masters": len(spec.topology.masters),
        "slaves": len(spec.topology.slaves),
        "enforcement": result.enforcement,
        "cycles": result.workload["final_cycle"],
        "workload_alerts": result.alerts["total"] if result.alerts else 0,
        "attacks": summary["attacks"],
        "prevented": summary["prevented"],
        "detected": summary["detected"],
        "seconds": time.perf_counter() - started,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument("--scenario", default=None, help="run a single scenario by name")
    parser.add_argument("--differential", action="store_true",
                        help="also run each scenario fast-vs-reference and compare")
    args = parser.parse_args()

    if args.list:
        for name in list_scenarios():
            print(f"{name:32s} {get_scenario(name).description}")
        return 0

    names = [args.scenario] if args.scenario else list_scenarios()
    rows = []
    failures = 0
    for name in names:
        row = run_one(name)
        if args.differential:
            fast, reference = differential_pair(lambda n=name: get_scenario(n))
            try:
                assert_equivalent(fast, reference)
                row["differential"] = "identical"
            except AssertionError as exc:
                failures += 1
                row["differential"] = "DIVERGED"
                print(f"!! {name} diverged:\n{exc}", file=sys.stderr)
        rows.append(row)

    headers = ["scenario", "masters", "slaves", "enforcement", "cycles",
               "workload alerts", "attacks", "prevented", "detected"]
    table_rows = [
        [r["scenario"], r["masters"], r["slaves"], r["enforcement"], r["cycles"],
         r["workload_alerts"], r["attacks"], r["prevented"], r["detected"]]
        for r in rows
    ]
    if args.differential:
        headers.append("fast vs reference")
        for table_row, row in zip(table_rows, rows):
            table_row.append(row["differential"])
    print(format_table(headers, table_rows,
                       title="Scenario matrix -- distributed firewalls across topologies"))
    print(f"\n{len(rows)} scenario(s) run"
          + (f", {failures} differential failure(s)" if args.differential else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
