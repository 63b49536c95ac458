"""Experiment E7 -- baseline comparison: distributed firewalls vs a
centralised Security Enforcement Module (SECA-style, Coburn et al.).

The paper's related-work section motivates the distributed design against
centralised architectures; this harness quantifies the comparison on the same
platform, same policies, same attacks:

* **containment** -- a malformed access from a hijacked processor is blocked
  before the bus by the distributed design, but only after crossing the bus
  by the centralised one,
* **DoS exposure** -- flood traffic is throttled at the infected IP's
  interface by the distributed design, while the centralised design lets all
  of it consume bus bandwidth,
* **area trade-off** -- the centralised module is cheaper (one checker instead
  of one per interface plus the LCF), which is the price the paper pays for
  containment and memory protection.

The benchmark timing measures one distributed-vs-centralised attack pair.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import bench_rounds, write_bench_json, write_result

from repro.analysis.tables import format_table
from repro.attacks import DoSFloodAttack, HijackedIPAttack
from repro.metrics.area import AreaModel
from repro.scenarios import ScenarioBuilder, get_scenario
from repro.soc.transaction import TransactionStatus

#: The Figure-1 platform, its DoS heuristic tightened to 10 requests.
SPEC = replace(get_scenario("paper_baseline"), flood_threshold=10)


def build_distributed():
    built = ScenarioBuilder(SPEC).build()
    return built.system, built.security


def build_centralized():
    built = ScenarioBuilder(replace(SPEC, enforcement="centralized")).build()
    return built.system, built.security


def run_comparison():
    results = {}

    # Containment of a hijacked-IP malformed write.
    d_system, d_security = build_distributed()
    d_attack = HijackedIPAttack().run(d_system, d_security)
    c_system, c_baseline = build_centralized()
    c_attack = HijackedIPAttack().run(c_system, None)
    results["containment"] = {
        "distributed_status": d_attack.extra["write_status"],
        "centralized_status": c_attack.extra["write_status"],
        "distributed_on_bus": "cpu1" in d_system.bus.monitor.per_master,
        "centralized_on_bus": "cpu1" in c_system.bus.monitor.per_master,
        "distributed_goal": d_attack.achieved_goal,
        "centralized_goal": c_attack.achieved_goal,
        "centralized_detected": c_baseline.monitor.count() > 0,
    }

    # DoS exposure.
    d_system, d_security = build_distributed()
    d_flood = DoSFloodAttack(n_requests=60).run(d_system, d_security)
    c_system, _ = build_centralized()
    before = c_system.bus.monitor.count()
    DoSFloodAttack(n_requests=60).run(c_system, None)
    c_reached = c_system.bus.monitor.count() - before
    results["dos"] = {
        "requests": 60,
        "distributed_reached_bus": d_flood.extra["reached_bus"],
        "centralized_reached_bus": c_reached,
    }

    # Area trade-off.
    model = AreaModel()
    _, c_baseline = build_centralized()
    distributed_area = model.platform_with_firewalls(n_local_firewalls=6)
    centralized_area = c_baseline.estimated_area()
    results["area"] = {
        "distributed_luts": round(distributed_area.slice_luts),
        "centralized_luts": round(centralized_area.slice_luts),
        "baseline_luts": round(model.platform_without_firewalls().slice_luts),
    }
    return results


def test_baseline_centralized_comparison(benchmark, results_dir):
    results = run_comparison()

    def one_pair():
        d_system, d_security = build_distributed()
        HijackedIPAttack().run(d_system, d_security)
        c_system, _ = build_centralized()
        HijackedIPAttack().run(c_system, None)

    benchmark.pedantic(one_pair, rounds=bench_rounds(3), iterations=1)

    containment = results["containment"]
    # Both designs stop and detect the malformed write...
    assert not containment["distributed_goal"]
    assert not containment["centralized_goal"]
    assert containment["centralized_detected"]
    # ... but only the distributed design keeps it off the bus.
    assert containment["distributed_status"] == TransactionStatus.BLOCKED_AT_MASTER.value
    assert containment["centralized_status"] == TransactionStatus.BLOCKED_AT_SLAVE.value
    assert not containment["distributed_on_bus"]
    assert containment["centralized_on_bus"]

    dos = results["dos"]
    assert dos["distributed_reached_bus"] < dos["centralized_reached_bus"]
    assert dos["centralized_reached_bus"] == dos["requests"]

    area = results["area"]
    assert area["centralized_luts"] < area["distributed_luts"]

    rendered = format_table(
        ["criterion", "distributed (paper)", "centralized (SECA-style)"],
        [
            ["malformed write stopped at", "infected IP's interface", "slave side (after the bus)"],
            ["malicious txn reached the bus", "no", "yes"],
            ["DoS requests reaching the bus (of 60)",
             dos["distributed_reached_bus"], dos["centralized_reached_bus"]],
            ["platform slice LUTs (model)", area["distributed_luts"], area["centralized_luts"]],
            ["external-memory confidentiality/integrity", "yes (LCF)", "no"],
        ],
        title="E7 -- distributed firewalls vs centralised enforcement",
    )
    rendered += (
        "\n\nreading: centralisation is cheaper but loses the containment property the paper\n"
        "requires ('the attack must not reach the communication architecture') and leaves\n"
        "the external memory unprotected.\n"
    )
    write_result(results_dir, "baseline_centralized.txt", rendered)
    write_bench_json(
        results_dir,
        "baseline_centralized",
        benchmark,
        dos_requests=dos["requests"],
        distributed_reached_bus=dos["distributed_reached_bus"],
        centralized_reached_bus=dos["centralized_reached_bus"],
        distributed_luts=area["distributed_luts"],
        centralized_luts=area["centralized_luts"],
        baseline_luts=area["baseline_luts"],
    )
