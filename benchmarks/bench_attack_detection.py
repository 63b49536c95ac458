"""Experiment E6 -- security validation: the threat-model detection matrix.

The paper claims (sections III and IV) that the distributed firewalls cover
replay, relocation and spoofing on the external memory, stop unauthorized
accesses from hijacked IPs at the infected IP's own interface, and limit the
impact of denial-of-service traffic.  This harness turns those claims into a
measurable matrix by running every attack against both platform variants.

Reproduction criteria:

* every attack achieves its goal on the unprotected platform (the attacks are
  real threats, not strawmen),
* no attack achieves its goal on the protected platform,
* every attack is detected (at least one alert),
* hijacked-IP attacks are contained at the infected IP's interface and never
  reach the shared bus.

The benchmark timing measures a single spoofing attack run end to end
(platform construction + attack + detection).
"""

from __future__ import annotations

from conftest import bench_rounds, write_bench_json, write_result

from repro.analysis.tables import format_table
from repro.attacks import (
    CampaignRunner,
    DoSFloodAttack,
    ExfiltrationAttack,
    HijackedIPAttack,
    RelocationAttack,
    ReplayAttack,
    SensitiveRegisterProbe,
    SpoofingAttack,
)
from repro.scenarios import get_scenario, platform_factory_for

FACTORY = platform_factory_for(get_scenario("paper_baseline"))

CONTAINED_ATTACKS = {"sensitive_register_probe", "hijacked_ip_write", "exfiltration"}


def run_campaign():
    runner = CampaignRunner(
        [
            SpoofingAttack(),
            ReplayAttack(),
            RelocationAttack(),
            SensitiveRegisterProbe(),
            HijackedIPAttack(),
            ExfiltrationAttack(),
            DoSFloodAttack(n_requests=80),
        ],
        FACTORY,
    )
    return runner.run()


def test_attack_detection_matrix(benchmark, results_dir):
    report = run_campaign()

    def one_spoofing_run():
        system, security = FACTORY(True)
        return SpoofingAttack().run(system, security)

    benchmark.pedantic(one_spoofing_run, rounds=bench_rounds(3), iterations=1)

    # Reproduction criteria.
    assert report.n_attacks == 7
    for row in report.rows:
        assert row.unprotected.achieved_goal, f"{row.attack} should work without protection"
        assert not row.protected.achieved_goal, f"{row.attack} should be stopped by the firewalls"
        assert row.protected.detected, f"{row.attack} should raise an alert"
        if row.attack in CONTAINED_ATTACKS:
            assert row.protected.contained_at_interface, (
                f"{row.attack} must be stopped at the infected IP's interface"
            )
    assert report.prevention_rate() == 1.0
    assert report.detection_rate() == 1.0

    rows = [
        [r["attack"], r["unprotected"], r["protected"], r["detected"],
         r["contained_at_if"], r["detection_cycle"]]
        for r in report.as_table_rows()
    ]
    rendered = format_table(
        ["attack", "unprotected platform", "protected platform", "detected",
         "stopped at interface", "detection cycle"],
        rows,
        title="E6 -- detection matrix of the paper's threat model",
    )
    summary = report.summary()
    rendered += (
        f"\n\nprevention rate: {100 * summary['prevention_rate']:.0f}%"
        f"\ndetection rate : {100 * summary['detection_rate']:.0f}%\n"
    )
    write_result(results_dir, "attack_detection.txt", rendered)
    write_bench_json(
        results_dir,
        "attack_detection",
        benchmark,
        attacks=report.n_attacks,
        prevented=report.n_prevented,
        detected=report.n_detected,
        prevention_rate=report.prevention_rate(),
        detection_rate=report.detection_rate(),
        monitor_totals=report.monitor_totals,
        campaign_wall_seconds=report.metrics.get("wall_seconds"),
    )
