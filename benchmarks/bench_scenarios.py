"""Scenario-registry benchmark: arbitrary topologies through one harness.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
this benchmark sweeps the whole scenario registry through the unified
``Experiment`` pipeline (the same surface the differential test harness, the
examples and the ``python -m repro`` CLI use), asserting that

* the registry holds at least the 8 canonical scenarios,
* every scenario builds, runs its workload and keeps its attack-detection
  promises on the protected platform (every distributed-enforcement attack is
  detected).

The timed section is one full ``paper_baseline`` experiment (build +
workload + attack mix), i.e. the end-to-end cost of evaluating one topology.
"""

from __future__ import annotations

from conftest import bench_rounds, write_bench_json, write_result

from repro.analysis.tables import format_table
from repro.api import Experiment
from repro.scenarios import get_scenario, list_scenarios


def run_scenario_once(name: str) -> dict:
    result = Experiment.from_scenario(name).run()
    spec = get_scenario(name)
    campaign = result.campaign or {"summary": {"attacks": 0, "detected": 0}}
    return {
        "scenario": name,
        "masters": len(spec.topology.masters),
        "slaves": len(spec.topology.slaves),
        "enforcement": result.enforcement,
        "placement": result.placement,
        "cycles": result.workload["final_cycle"],
        "attacks": campaign["summary"]["attacks"],
        "detected": campaign["summary"]["detected"],
    }


def test_scenario_registry_matrix(benchmark, results_dir):
    names = list_scenarios()
    assert len(names) >= 8, "registry must hold at least 8 canonical scenarios"

    rows = [run_scenario_once(name) for name in names]

    # Every attack must be detected when the distributed plan places leaf
    # firewalls.  Bridge-only placement is *expected* to miss some (that is
    # the paper's argument against centralization, reproduced in-topology by
    # bridge_firewalled_centralized) but must still catch at least one.
    for row in rows:
        if row["enforcement"] != "distributed":
            continue
        if row["placement"] in ("leaf", "both"):
            assert row["detected"] == row["attacks"], (
                f"{row['scenario']}: {row['detected']}/{row['attacks']} attacks detected"
            )
        else:
            assert 0 < row["detected"] < row["attacks"], (
                f"{row['scenario']}: bridge-only placement should catch some "
                f"but not all attacks ({row['detected']}/{row['attacks']})"
            )

    benchmark.pedantic(
        lambda: run_scenario_once("paper_baseline"),
        rounds=bench_rounds(3),
        iterations=1,
    )

    rendered = format_table(
        ["scenario", "masters", "slaves", "enforcement", "placement", "cycles",
         "attacks", "detected"],
        [[r["scenario"], r["masters"], r["slaves"], r["enforcement"], r["placement"],
          r["cycles"], r["attacks"], r["detected"]] for r in rows],
        title="Scenario registry -- one row per registered topology",
    )
    write_result(results_dir, "scenarios.txt", rendered)
    write_bench_json(
        results_dir,
        "scenarios",
        benchmark,
        scenarios=len(rows),
        total_attacks=sum(r["attacks"] for r in rows),
        total_detected=sum(r["detected"] for r in rows),
        registry=names,
    )
