"""Experiment façade, result schema and CLI tests."""

from __future__ import annotations

import errno
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
from repro.api import Experiment, ExperimentResult, RESULT_SCHEMA_VERSION
from repro.api.cli import main as cli_main
from repro.attacks.runner import CampaignRunner, shard_seed
from repro.scenarios import ScenarioBuilder, get_scenario, list_scenarios

from tests.conftest import build_figure1

#: The stable top-level key set of ``ExperimentResult.to_dict()``.
RESULT_KEYS = {
    "schema_version", "scenario", "description", "protected", "enforcement",
    "placement", "seed", "reference", "workload", "alerts", "reactions",
    "security", "latency", "area", "campaign", "events", "memories", "meta",
}


class TestExperimentPipeline:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_run_works_for_every_registered_scenario(self, name):
        result = Experiment.from_scenario(name).run()
        assert isinstance(result, ExperimentResult)
        assert result.scenario == name
        assert set(result.to_dict()) == RESULT_KEYS
        assert result.workload["final_cycle"] >= 0
        assert result.memories, "memory digests missing"
        spec = get_scenario(name)
        if spec.attacks:
            assert result.campaign["summary"]["attacks"] == len(spec.attacks)
        else:
            assert result.campaign is None
        # JSON-serializable end to end.
        json.loads(result.to_json())

    def test_unprotected_run_has_no_security_sections(self):
        result = Experiment.from_scenario("minimal_1x1").protected(False).run()
        assert result.alerts is None
        assert result.security is None
        assert result.reactions is None
        # The campaign still scores both variants.
        assert result.campaign["summary"]["attacks"] == 1

    def test_with_attacks_overrides_mix(self):
        from repro.scenarios.spec import AttackSpec

        result = (
            Experiment.from_scenario("minimal_1x1")
            .with_attacks(AttackSpec("dos_flood", {"hijacked_master": "cpu0", "n_requests": 30}),
                          AttackSpec("dos_flood", {"hijacked_master": "cpu0", "n_requests": 60}))
            .run()
        )
        assert result.campaign["summary"]["attacks"] == 2

    def test_no_attacks_skips_campaign(self):
        result = Experiment.from_scenario("minimal_1x1").no_attacks().run()
        assert result.campaign is None

    def test_reference_mode_matches_fast_mode(self):
        fast = Experiment.from_scenario("minimal_1x1").run()
        reference = Experiment.from_scenario("minimal_1x1").reference().run()
        assert fast.memories == reference.memories
        assert fast.alerts == reference.alerts
        assert fast.workload["final_cycle"] == reference.workload["final_cycle"]
        assert reference.reference is True

    def test_campaign_runs_in_process_and_records_one_shard(self):
        result = (
            Experiment.from_scenario("paper_baseline").with_workload(None).with_seed(5).run()
        )
        pinned = (
            Experiment.from_scenario("paper_baseline").with_workload(None).with_seed(5)
            .campaign(1).run()
        )
        assert pinned.campaign["rows"] == result.campaign["rows"]
        assert result.meta["n_workers"] == 1
        metrics = result.campaign["metrics"]
        assert metrics["n_workers"] == 1
        assert metrics["shards"] == [{"shard": 0, "seed": shard_seed(5, 0), "attacks": 7}]

    @pytest.mark.parametrize("n_workers", [0, 2, None])
    def test_campaign_rejects_other_worker_counts(self, n_workers):
        with pytest.raises(ValueError, match="in-process"):
            Experiment.from_scenario("minimal_1x1").campaign(n_workers)

    def test_schema_version_recorded(self):
        result = Experiment.from_scenario("minimal_1x1").no_attacks().run()
        assert result.to_dict()["schema_version"] == RESULT_SCHEMA_VERSION

    def test_scenarios_listing_matches_registry(self):
        assert Experiment.scenarios() == list_scenarios()

    def test_run_experiment_convenience_wrapper(self):
        from repro.api import StatsSink, run_experiment

        sink = StatsSink()
        result = run_experiment("minimal_1x1", seed=7, sinks=[sink])
        assert result.seed == 7
        assert result.events == sink.counts and sink.total() > 0

    def test_top_level_lazy_export(self):
        import repro

        assert repro.Experiment is Experiment
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestSingleEngine:
    """The event-driven kernel is the only engine: pinning it is accepted,
    anything else is refused, and results carry a fixed provenance block."""

    def test_object_engine_is_accepted_and_changes_nothing(self):
        from repro.sweep.store import canonical_result

        plain = Experiment.from_scenario("minimal_1x1").no_attacks().run()
        pinned = (
            Experiment.from_scenario("minimal_1x1").no_attacks().with_engine("object").run()
        )
        assert canonical_result(plain.to_dict()) == canonical_result(pinned.to_dict())
        assert plain.meta["engine"] == {
            "requested": "object", "used": "object", "fallback_reason": None,
        }

    @pytest.mark.parametrize("mode", ["vector", "auto", "warp"])
    def test_other_engines_are_rejected(self, mode):
        with pytest.raises(ValueError, match="engine"):
            Experiment.from_scenario("minimal_1x1").with_engine(mode)

    def test_cli_json_carries_the_fixed_engine_block(self, capsys):
        from repro.api.experiment import ENGINE_META

        assert cli_main(["run", "minimal_1x1", "--no-attacks", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["engine"] == ENGINE_META

    def test_cli_refuses_the_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "minimal_1x1", "--no-attacks", "--engine", "vector"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestSummaryPlacement:
    """SecuredPlatform.summary() must cover bridge firewalls and placement."""

    def test_summary_includes_bridge_firewalls_and_placement(self):
        built = Experiment.from_spec(get_scenario("deep_hierarchy_3seg")).build()
        summary = built.security.summary()
        assert summary["placement"] == "both"
        assert summary["bridge_firewalls"] == ["br01", "br12"]
        assert summary["firewall_counts"]["bridge"] == 2
        # Bridge firewalls appear in the per-firewall breakdown too.
        assert {"lf_br01", "lf_br12"} <= set(summary["firewalls"])

    def test_flat_platform_summary_reports_leaf_placement(self):
        system, security = build_figure1(window=8 * 1024)
        summary = security.summary()
        assert summary["placement"] == "leaf"
        assert summary["bridge_firewalls"] == []
        assert summary["firewall_counts"]["bridge"] == 0
        assert summary["firewall_counts"]["master"] == len(system.master_ports)

    def test_experiment_result_surfaces_same_fields(self):
        result = Experiment.from_scenario("deep_hierarchy_3seg").no_attacks().run()
        assert result.placement == "both"
        assert result.security["placement"] == "both"
        assert result.security["bridge_firewalls"] == ["br01", "br12"]
        split = {row["placement"]: row for row in result.latency["placement_split"]}
        assert split["bridge"]["firewalls"] == 2
        assert split["leaf_master"]["evaluations"] > 0


class TestComposedEntryPoints:
    """The façade composes the builder and the campaign runner; calling
    either directly gives the same platform and the same campaign."""

    def test_builder_build_matches_facade_build(self):
        spec = get_scenario("minimal_1x1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = ScenarioBuilder(spec).build()
        facade = Experiment.from_spec(get_scenario("minimal_1x1")).build()
        assert direct.system.describe_topology() == facade.system.describe_topology()
        assert direct.security.summary() == facade.security.summary()

    def test_campaign_runner_matches_facade_campaign(self):
        report = CampaignRunner.from_spec(get_scenario("minimal_1x1")).run()
        result = Experiment.from_scenario("minimal_1x1").with_workload(None).run()
        assert result.campaign["rows"] == report.as_table_rows()
        assert result.campaign["monitor_totals"] == report.monitor_totals
        assert report.metrics["scenario"] == "minimal_1x1"


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in list_scenarios():
            assert name in out

    def test_list_json(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(list_scenarios())

    def test_run_json_schema(self, capsys):
        assert cli_main(["run", "paper_baseline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == RESULT_KEYS
        assert payload["scenario"] == "paper_baseline"
        assert payload["campaign"]["summary"]["attacks"] == 7

    def test_run_human_report(self, capsys):
        assert cli_main(["run", "minimal_1x1", "--no-attacks"]) == 0
        out = capsys.readouterr().out
        assert "Experiment: minimal_1x1" in out
        assert "workload" in out

    def test_run_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert cli_main(["run", "minimal_1x1", "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        json.loads(lines[0])

    @pytest.mark.parametrize("target", ["a_directory", "in_a_missing_directory"])
    def test_unwritable_trace_path_is_one_line_and_exit_one(self, target, tmp_path, capsys):
        path = tmp_path if target == "a_directory" else tmp_path / "missing" / "trace.jsonl"
        reason = os.strerror(errno.EISDIR if target == "a_directory" else errno.ENOENT)
        assert cli_main(["run", "minimal_1x1", "--trace", str(path)]) == 1
        assert capsys.readouterr().err == f"repro run: {path}: {reason}\n"

    def test_reference_json_differs_only_in_the_flag_cache_counters_and_wall_time(self, capsys):
        def flatten(value, path=""):
            if isinstance(value, dict):
                items = value.items()
            elif isinstance(value, list):
                items = enumerate(value)
            else:
                return {path: value}
            return {k: v for key, item in items for k, v in flatten(item, f"{path}/{key}").items()}

        runs = []
        for argv in (["run", "paper_baseline", "--json"],
                     ["run", "paper_baseline", "--reference", "--json"]):
            assert cli_main(argv) == 0
            runs.append(flatten(json.loads(capsys.readouterr().out)))
        default, reference = runs
        assert set(default) == set(reference)
        differing = {path for path in default if default[path] != reference[path]}
        counters = {path for path in differing if path.endswith(("/sb_cache_hits", "/sb_cache_misses"))}
        assert differing - counters == {"/reference", "/campaign/metrics/wall_seconds"}
        assert counters and all(reference[path] == 0 for path in counters)

    def test_campaign(self, capsys):
        assert cli_main(["campaign", "minimal_1x1"]) == 0
        out = capsys.readouterr().out
        assert "dos_flood" in out

    def test_campaign_json(self, capsys):
        assert cli_main(["campaign", "minimal_1x1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["attacks"] == 1

    @pytest.mark.parametrize("argv", [
        ["run", "minimal_1x1", "--workers", "2"],
        ["campaign", "minimal_1x1", "--workers", "2"],
        ["serve"],
        ["submit"],
        ["status"],
    ])
    def test_worker_options_and_daemon_commands_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["run", "campaign", "verify"])
    def test_unknown_scenario_is_one_line_and_exit_one(self, command, capsys):
        assert cli_main([command, "nosuch"]) == 1
        assert capsys.readouterr().err == f"repro {command}: no scenario named 'nosuch'\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "run", "--sweep-workers", "0"],
        ["paper", "--sweep-workers", "-1"],
        ["fuzz", "minimal_1x1", "--budget", "0"],
        ["fuzz", "minimal_1x1", "--steps", "0"],
        ["fuzz", "minimal_1x1", "--budget", "two"],
        ["sweep", "gc", "--keep-latest", "0"],
    ])
    def test_counts_below_one_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err


def test_importing_the_api_leaves_multiprocessing_unloaded():
    """Only a sweep with ``sweep_workers > 1`` starts processes, so no
    command pays for importing ``multiprocessing`` up front."""
    code = (
        "import sys, repro.api, repro.api.cli, repro.sweep\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_importing_the_fuzzer_leaves_the_sweep_and_analysis_unloaded():
    """A fuzz corpus is a JSON file, not a sweep store, so ``repro fuzz``
    pays for neither the sweep engine nor the report renderers."""
    code = (
        "import sys, repro.fuzz\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['repro', 'sweep'], ['repro', 'analysis'])))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["repro", "repro.soc.kernel", "repro.core.policy", "repro.crypto.aes"])
def test_importing_one_module_loads_only_its_packages(module):
    """The substrate packages re-export nothing, so importing a module loads
    ``repro``, its package and the module itself, and no other layer."""
    code = (
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    parts = module.split(".")
    assert json.loads(proc.stdout) == [".".join(parts[:n]) for n in range(1, len(parts) + 1)]
