"""Tests for the in-process campaign loop.

The contract under test: every attack runs on a fresh unprotected and a fresh
protected platform, so a battery's rows and monitor totals are exactly what
each attack produces when it runs alone, in attack order.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.attacks import (
    CampaignRunner,
    DoSFloodAttack,
    HijackedIPAttack,
    SpoofingAttack,
)
from repro.attacks.runner import shard_seed
from repro.scenarios import get_scenario, platform_factory_for

from tests.conftest import figure1_spec


def _attacks():
    return [SpoofingAttack(), HijackedIPAttack(), DoSFloodAttack(n_requests=40)]


def _factory():
    return platform_factory_for(figure1_spec(flood_threshold=20))


def _row_fingerprint(report):
    return [
        (
            row.attack,
            row.unprotected.outcome.value,
            row.protected.outcome.value,
            row.detected,
            row.protected.detection_cycle,
        )
        for row in report.rows
    ]


class TestCampaignRunner:
    def test_battery_equals_each_attack_run_alone(self):
        battery = CampaignRunner(_attacks(), _factory()).run()
        alone = [CampaignRunner([attack], _factory()).run() for attack in _attacks()]
        assert _row_fingerprint(battery) == [
            fingerprint for report in alone for fingerprint in _row_fingerprint(report)
        ]
        summed = {}
        for report in alone:
            for violation, count in report.monitor_totals.items():
                summed[violation] = summed.get(violation, 0) + count
        assert battery.monitor_totals == summed
        assert battery.monitor_totals  # protected runs raised alerts

    def test_metrics_record_one_in_process_shard(self):
        report = CampaignRunner(_attacks(), _factory(), base_seed=42).run()
        assert report.metrics["n_workers"] == 1
        assert report.metrics["shards"] == [
            {"shard": 0, "seed": shard_seed(42, 0), "attacks": 3}
        ]
        assert report.metrics["wall_seconds"] >= 0
        assert "scenario" not in report.metrics

    def test_runner_requires_a_platform_factory(self):
        with pytest.raises(TypeError):
            CampaignRunner([SpoofingAttack()])

    def test_empty_campaign_rejected_everywhere(self):
        """Every campaign entry point refuses an empty battery the same way."""
        with pytest.raises(ValueError):
            CampaignRunner([], _factory())
        spec = replace(get_scenario("minimal_1x1"), attacks=())
        with pytest.raises(ValueError, match="no attack mix"):
            CampaignRunner.from_spec(spec)


def _renamed_primaries(spec, names):
    """``spec`` with its slaves renamed per ``names`` (old -> new), and every
    master's access lists following them."""

    def rename(slaves):
        return None if slaves is None else tuple(names.get(name, name) for name in slaves)

    topology = replace(
        spec.topology,
        masters=tuple(
            replace(m, accessible=rename(m.accessible), readonly=rename(m.readonly))
            for m in spec.topology.masters
        ),
        slaves=tuple(replace(s, name=names.get(s.name, s.name)) for s in spec.topology.slaves),
    )
    return replace(spec, name=f"{spec.name}_renamed", topology=topology)


class TestScenarioCampaigns:
    def test_from_spec_runs_the_scenario_mix(self):
        report = CampaignRunner.from_spec(get_scenario("paper_baseline")).run()
        assert report.metrics["scenario"] == "paper_baseline"
        assert report.n_attacks == 7
        assert report.n_detected == 7

    def test_campaign_does_not_depend_on_the_primary_devices_names(self):
        """Attacks find the dedicated IP and the DDR through ``system.config``,
        whatever the scenario calls them."""
        spec = get_scenario("paper_baseline")
        renamed = _renamed_primaries(spec, {"ip0": "regs", "ddr": "ext"})
        assert {s.name for s in renamed.topology.slaves} == {"bram", "regs", "ext"}
        want = CampaignRunner.from_spec(spec).run()
        got = CampaignRunner.from_spec(renamed).run()
        assert got.summary() == want.summary()
        assert got.as_table_rows() == want.as_table_rows()
        assert got.monitor_totals == want.monitor_totals


def test_shard_seeds_are_deterministic_and_distinct():
    seeds = [shard_seed(42, index) for index in range(16)]
    assert seeds == [shard_seed(42, index) for index in range(16)]
    assert len(set(seeds)) == len(seeds)
