"""SweepSpec grid expansion, filters, point identity and key invalidation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.scenarios import get_scenario, list_scenarios
from repro.sweep import SweepSpec, point_key, spec_hash
from repro.sweep.spec import SweepPoint


class TestExpansion:
    def test_default_spec_covers_every_registered_scenario(self):
        plan = SweepSpec().plan()
        assert [p.scenario for p in plan.points] == list_scenarios()
        assert plan.skipped == ()

    def test_axes_multiply(self):
        plan = SweepSpec(
            scenarios=("minimal_1x1",), seeds=(0, 1), protected=(True, False)
        ).plan()
        assert len(plan.points) == 4
        assert len({p.point_id for p in plan.points}) == 4

    def test_invalid_placement_is_skipped_with_reason(self):
        plan = SweepSpec(
            scenarios=("minimal_1x1", "two_segment_dma_isolation"),
            placements=("bridge",),
        ).plan()
        assert [p.scenario for p in plan.points] == ["two_segment_dma_isolation"]
        assert len(plan.skipped) == 1
        assert plan.skipped[0]["point_id"].startswith("minimal_1x1/")
        assert "bridges" in plan.skipped[0]["reason"]

    def test_placement_equal_to_the_scenario_default_collapses(self):
        # minimal_1x1's own placement is "leaf": an explicit leaf axis value
        # must share the default point's identity (and thus its cache key).
        plan = SweepSpec(
            scenarios=("minimal_1x1",), placements=(None, "leaf")
        ).plan()
        assert len(plan.points) == 1
        assert plan.points[0].placement is None

    def test_workload_ops_equal_to_the_scenario_default_collapses(self):
        base_ops = get_scenario("minimal_1x1").workload.n_operations
        plan = SweepSpec(
            scenarios=("minimal_1x1",), workload_ops=(None, base_ops, 7)
        ).plan()
        assert [p.workload_ops for p in plan.points] == [None, 7]

    def test_point_id_format_is_frozen(self):
        # Stored results and published reports are labelled by point id.
        (point,) = SweepSpec(scenarios=("minimal_1x1",)).plan().points
        assert point.point_id == (
            "minimal_1x1/placement=default/seed=0/workers=1/protected"
            "/attacks=scenario/ops=default/engine=default"
        )

    def test_plan_carries_the_resolved_base_specs(self):
        plan = SweepSpec(scenarios=("minimal_1x1",)).plan()
        assert set(plan.bases) == {"minimal_1x1"}
        assert plan.bases["minimal_1x1"].name == "minimal_1x1"

    def test_include_exclude_patterns(self):
        plan = SweepSpec(include=("minimal_*", "paper_baseline")).plan()
        assert {p.scenario for p in plan.points} == {"minimal_1x1", "paper_baseline"}
        plan = SweepSpec(include=("minimal_*",), exclude=("*seed=0*",),
                         seeds=(0, 1)).plan()
        assert [p.seed for p in plan.points] == [1]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(seeds=())

    @pytest.mark.parametrize("workers", [(2,), (1, 2), ()])
    def test_campaign_workers_other_than_one_rejected(self, workers):
        with pytest.raises(ValueError, match="in-process"):
            SweepSpec(campaign_workers=workers)

    def test_campaign_workers_of_one_changes_nothing(self):
        pinned = SweepSpec(scenarios=("minimal_1x1",), campaign_workers=(1,))
        assert pinned == SweepSpec(scenarios=("minimal_1x1",))
        assert pinned.plan().points == SweepSpec(scenarios=("minimal_1x1",)).plan().points

    def test_unknown_attack_mode_rejected(self):
        with pytest.raises(ValueError, match="attack mode"):
            SweepSpec(attack_modes=("everything",))

    def test_sweep_hash_changes_with_the_grid(self):
        assert SweepSpec().sweep_hash() != SweepSpec(seeds=(1,)).sweep_hash()
        assert SweepSpec().sweep_hash() == SweepSpec().sweep_hash()


class TestPointResolution:
    def _point(self, **overrides) -> SweepPoint:
        params = dict(
            scenario="two_segment_dma_isolation", placement=None, seed=0,
            protected=True, workload_ops=None, attack_mode="scenario",
        )
        params.update(overrides)
        return SweepPoint(**params)

    def test_placement_override_is_applied(self):
        base = get_scenario("two_segment_dma_isolation")
        resolved = self._point(placement="leaf").resolve_spec(base)
        assert resolved.placement == "leaf"
        resolved.validate()

    def test_workload_override_is_applied(self):
        base = get_scenario("two_segment_dma_isolation")
        resolved = self._point(workload_ops=17).resolve_spec(base)
        assert resolved.workload.n_operations == 17

    def test_defaults_keep_the_base_spec(self):
        base = get_scenario("two_segment_dma_isolation")
        assert self._point().resolve_spec(base) == base


class TestKeys:
    def test_key_is_stable_for_identical_inputs(self):
        point = SweepPoint("minimal_1x1", None, 0, True, None, "scenario")
        spec = get_scenario("minimal_1x1")
        assert point_key(point, spec, "fp") == point_key(point, spec, "fp")

    def test_key_changes_when_the_scenario_definition_changes(self):
        point = SweepPoint("minimal_1x1", None, 0, True, None, "scenario")
        spec = get_scenario("minimal_1x1")
        edited = dataclasses.replace(
            spec, workload=dataclasses.replace(spec.workload, n_operations=999)
        )
        assert point_key(point, spec, "fp") != point_key(point, edited, "fp")
        assert spec_hash(spec) != spec_hash(edited)

    def test_key_changes_with_the_code_fingerprint(self):
        point = SweepPoint("minimal_1x1", None, 0, True, None, "scenario")
        spec = get_scenario("minimal_1x1")
        assert point_key(point, spec, "fp-a") != point_key(point, spec, "fp-b")

    def test_key_changes_with_point_parameters(self):
        spec = get_scenario("minimal_1x1")
        a = SweepPoint("minimal_1x1", None, 0, True, None, "scenario")
        b = SweepPoint("minimal_1x1", None, 1, True, None, "scenario")
        assert point_key(a, spec, "fp") != point_key(b, spec, "fp")
